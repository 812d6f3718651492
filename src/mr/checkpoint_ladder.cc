#include "src/mr/checkpoint_ladder.h"

#include <algorithm>

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
    for (uint32_t c = 0; c < static_cast<uint32_t>(marks_[r].size()); ++c) {
      gates_[r][marks_[r][c].gate_op] = c;
    }
  }
}

void CheckpointLadder::OpDone(int r, uint32_t op, int node) {
  const auto gate = gates_[static_cast<size_t>(r)].find(op);
  if (gate == gates_[static_cast<size_t>(r)].end()) return;
  std::vector<Durable>& durable = durable_[static_cast<size_t>(r)];
  for (const Durable& d : durable) {
    if (d.ordinal == gate->second) return;
  }
  Durable d;
  d.ordinal = gate->second;
  int slot = 0;
  d.replicas.emplace_back(slot++, node);
  const int nodes = config_.cluster.nodes;
  for (int off = 1; off < nodes && slot < config_.checkpoint_replication;
       ++off) {
    const int n = (node + off) % nodes;
    if (!dead_[static_cast<size_t>(n)]) d.replicas.emplace_back(slot++, n);
  }
  durable.push_back(std::move(d));
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
  const std::vector<Durable>& durable = durable_[static_cast<size_t>(r)];
  for (auto it = durable.rbegin(); it != durable.rend(); ++it) {
    choice.had_durable = true;
    const CheckpointMark& mark = marks_[static_cast<size_t>(r)][it->ordinal];
    for (const auto& [slot, node] : it->replicas) {
      if (plan_.CheckpointCorruptions(r, it->ordinal, slot) > 0) {
        choice.tried.push_back({slot, node, mark.bytes});
        continue;
      }
      choice.ordinal = static_cast<int>(it->ordinal);
      choice.watermark = mark.watermark;
      choice.node = node;
      return choice;
    }
  }
  return choice;
}

uint32_t CheckpointLadder::Watermark(int r) const {
  if (durable_[static_cast<size_t>(r)].empty()) return 0;
  return Choose(r).watermark;
}

CostTrace CheckpointLadder::RestoreChain(int r, const Choice& choice,
                                         int node) const {
  CostTrace chain;
  TraceRecorder trace(&chain);
  int try_i = 0;
  auto read_replica = [&](int holder, uint64_t bytes) {
    if (try_i > 0) {
      const uint64_t key = (static_cast<uint64_t>(r) << 40) ^
                           (static_cast<uint64_t>(choice.ordinal) << 16) ^
                           static_cast<uint64_t>(try_i);
      trace.Stall(config_.faults.fetch_retry.BackoffFor(try_i - 1, key),
                  OpTag::kCheckpoint);
    }
    ++try_i;
    if (holder == node) {
      trace.DiskRead(bytes, OpTag::kCheckpoint);
    } else {
      trace.Net(bytes, OpTag::kCheckpoint);
    }
  };
  for (const TriedReplica& t : choice.tried) read_replica(t.node, t.bytes);
  const CheckpointMark& mark =
      marks_[static_cast<size_t>(r)][static_cast<size_t>(choice.ordinal)];
  read_replica(choice.node, mark.bytes);
  if (config_.block_codec != BlockCodecKind::kNone) {
    trace.Cpu(config_.costs.decompress_byte_s *
                  static_cast<double>(mark.raw_bytes),
              OpTag::kCheckpoint);
  }
  return chain;
}

}  // namespace onepass
