#include "src/dfs/chunk_reader.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/storage/stored_run.h"

namespace onepass {

ChunkReader::ChunkReader(const ChunkStore* store,
                         const IntegrityConfig& integrity,
                         const sim::FaultPlan* plan)
    : store_(store), integrity_(integrity), plan_(plan),
      nodes_(store->nodes()) {
  CHECK(store != nullptr);
  replicas_.reserve(store_->chunks().size());
  for (const Chunk& c : store_->chunks()) replicas_.push_back(c.replicas);
}

const std::vector<int>& ChunkReader::replicas(int index) const {
  return replicas_[static_cast<size_t>(index)];
}

Result<KvBuffer> ChunkReader::Read(int index, ChunkReadStats* stats) {
  CHECK(stats != nullptr);
  *stats = ChunkReadStats{};
  const Chunk& chunk = store_->chunks()[static_cast<size_t>(index)];
  if (!integrity_.checksums || chunk.records.empty()) {
    stats->replica_reads = 1;
    return chunk.records;
  }

  std::vector<int>& view = replicas_[static_cast<size_t>(index)];
  const std::string framed =
      FrameBytes(chunk.records.data(), integrity_.block_bytes);
  const int64_t expect = static_cast<int64_t>(chunk.records.bytes());
  const uint64_t overhead = framed.size() - chunk.records.bytes();

  std::vector<int> bad;
  const std::vector<int> order = view;  // view mutates on recovery
  for (int node : order) {
    ++stats->replica_reads;
    stats->verify_bytes += chunk.records.bytes();
    stats->overhead_bytes += overhead;
    sim::CorruptionEvent ev;
    if (plan_ != nullptr) {
      ev = plan_->CorruptionDamage(sim::StreamKind::kDfsChunk,
                                   static_cast<uint64_t>(index),
                                   static_cast<uint64_t>(node),
                                   /*gen=*/0, framed.size());
    }
    if (ev.fires()) {
      // Damage this copy and prove the reader notices: a single flipped
      // bit or truncated tail must never verify.
      ProveDamageDetected(framed, ev, expect);
      ++stats->quarantined;
      if (ev.torn) ++stats->torn;
      bad.push_back(node);
      continue;
    }
    Result<std::string> payload = ReadAllFramed(framed, expect);
    CHECK(payload.ok()) << payload.status().ToString();

    if (!bad.empty()) {
      // Quarantine the bad copies and re-replicate from this survivor
      // onto fresh nodes (round-robin past each bad holder), restoring
      // the chunk's replication factor where the cluster allows.
      for (int b : bad) {
        view.erase(std::remove(view.begin(), view.end(), b), view.end());
      }
      for (int b : bad) {
        for (int step = 1; step <= nodes_; ++step) {
          const int candidate = (b + step) % nodes_;
          const bool holds =
              std::find(view.begin(), view.end(), candidate) != view.end();
          const bool quarantined =
              std::find(bad.begin(), bad.end(), candidate) != bad.end();
          if (!holds && !quarantined) {
            view.push_back(candidate);
            stats->rereplicated_bytes += chunk.records.bytes();
            break;
          }
        }
      }
    }
    return KvBuffer::FromData(std::move(payload).value(),
                              chunk.records.count());
  }
  return Status::Corruption("chunk " + std::to_string(index) + ": all " +
                            std::to_string(order.size()) +
                            " replicas failed checksum verification");
}

}  // namespace onepass
