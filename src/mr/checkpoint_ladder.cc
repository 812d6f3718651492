#include "src/mr/checkpoint_ladder.h"

#include <algorithm>

#include "src/common/logging.h"

namespace onepass {

CheckpointLadder::CheckpointLadder(
    const JobConfig& config, const sim::FaultPlan& plan,
    std::vector<std::vector<CheckpointMark>> marks)
    : config_(config),
      plan_(plan),
      marks_(std::move(marks)),
      gates_(marks_.size()),
      durable_(marks_.size()),
      dead_(static_cast<size_t>(config.cluster.nodes), 0) {
  for (size_t r = 0; r < marks_.size(); ++r) {
    durable_[r].resize(marks_[r].size());
    for (uint32_t c = 0; c < static_cast<uint32_t>(marks_[r].size()); ++c) {
      const CheckpointMark& mark = marks_[r][c];
      CHECK(mark.links == 1 ||
            (c > 0 && mark.links == marks_[r][c - 1].links + 1))
          << "reduce " << r << " checkpoint " << c << " claims "
          << mark.links << " chain links";
      gates_[r][mark.gate_op] = c;
    }
  }
}

void CheckpointLadder::OpDone(int r, uint32_t op, int node) {
  const auto gate = gates_[static_cast<size_t>(r)].find(op);
  if (gate == gates_[static_cast<size_t>(r)].end()) return;
  Durable& d = durable_[static_cast<size_t>(r)][gate->second];
  if (d.placed) return;
  d.placed = true;
  int slot = 0;
  d.replicas.emplace_back(slot++, node);
  const int nodes = config_.cluster.nodes;
  for (int off = 1; off < nodes && slot < config_.checkpoint_replication;
       ++off) {
    const int n = (node + off) % nodes;
    if (!dead_[static_cast<size_t>(n)]) d.replicas.emplace_back(slot++, n);
  }
}

void CheckpointLadder::NodeDied(int n) {
  dead_[static_cast<size_t>(n)] = 1;
  for (std::vector<Durable>& durable : durable_) {
    for (Durable& d : durable) {
      d.replicas.erase(std::remove_if(d.replicas.begin(), d.replicas.end(),
                                      [n](const std::pair<int, int>& rep) {
                                        return rep.second == n;
                                      }),
                       d.replicas.end());
    }
  }
}

CheckpointLadder::Choice CheckpointLadder::Choose(int r) const {
  Choice choice;
  const std::vector<CheckpointMark>& marks = marks_[static_cast<size_t>(r)];
  const std::vector<Durable>& durable = durable_[static_cast<size_t>(r)];
  // holder[k]: the node of link k's first verifiable replica, kLost when
  // it has none; each link's slots are walked (and its rejected replicas
  // tried) at most once.
  constexpr int kUnwalked = -2, kLost = -1;
  std::vector<int> holder(marks.size(), kUnwalked);
  auto usable = [&](size_t k) {
    if (holder[k] == kUnwalked) {
      holder[k] = kLost;
      for (const auto& [slot, node] : durable[k].replicas) {
        if (plan_.CheckpointCorruptions(r, static_cast<uint32_t>(k), slot) >
            0) {
          choice.tried.push_back({slot, node, marks[k].bytes});
          continue;
        }
        holder[k] = node;
        break;
      }
    }
    return holder[k] != kLost;
  };
  for (size_t i = marks.size(); i-- > 0;) {
    if (!durable[i].placed) continue;
    choice.had_durable = true;
    // A link with no verifiable replica rules out every instance of its
    // chain from there on, so the next candidate is the one just below it.
    const size_t base = i + 1 - marks[i].links;
    size_t k = base;
    while (k <= i && usable(k)) ++k;
    if (k <= i) {
      i = k;
      continue;
    }
    choice.ordinal = static_cast<int>(i);
    choice.watermark = marks[i].watermark;
    choice.node = holder[i];
    for (k = base; k < i; ++k) choice.base_nodes.push_back(holder[k]);
    return choice;
  }
  return choice;
}

uint32_t CheckpointLadder::Watermark(int r) const {
  return Choose(r).watermark;
}

CostTrace CheckpointLadder::RestoreChain(int r, const Choice& choice,
                                         int node) const {
  CostTrace chain;
  TraceRecorder trace(&chain);
  auto read_replica = [&](int holder, uint64_t bytes) {
    if (holder == node) {
      trace.DiskRead(bytes, OpTag::kCheckpoint);
    } else {
      trace.Net(bytes, OpTag::kCheckpoint);
    }
  };
  // The read after a rejected replica waits out the retry backoff first.
  int rejected = 0;
  auto back_off = [&] {
    if (rejected > 0) {
      trace.Stall(sim::RetryBackoff(rejected - 1), OpTag::kCheckpoint);
    }
  };
  for (const TriedReplica& t : choice.tried) {
    back_off();
    read_replica(t.node, t.bytes);
    ++rejected;
  }
  back_off();
  const std::vector<CheckpointMark>& marks = marks_[static_cast<size_t>(r)];
  const size_t last = static_cast<size_t>(choice.ordinal);
  const size_t base = last + 1 - marks[last].links;
  CHECK_EQ(choice.base_nodes.size(), last - base)
      << "restore choice does not name every link of its chain";
  uint64_t raw_bytes = 0;
  for (size_t k = base; k <= last; ++k) {
    read_replica(k < last ? choice.base_nodes[k - base] : choice.node,
                 marks[k].bytes);
    raw_bytes += marks[k].raw_bytes;
  }
  if (config_.block_codec != BlockCodecKind::kNone) {
    trace.Cpu(config_.costs.decompress_byte_s *
                  static_cast<double>(raw_bytes),
              OpTag::kCheckpoint);
  }
  return chain;
}

}  // namespace onepass
