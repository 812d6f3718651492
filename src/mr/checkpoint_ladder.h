// CheckpointLadder: the restore side of reduce-state checkpointing
// (DESIGN.md §5.6) in one job's time-plane replay.
//
// The reduce data plane records a CheckpointMark per checkpoint it writes.
// In the replay, a mark becomes a durable *instance* once its gate op
// completes: replicas go to the writer plus the next
// checkpoint_replication - 1 alive nodes round-robin, each in a numbered
// slot. A crash drops the replicas its node held; the survivors keep their
// slot numbers, so the FaultPlan's per-(reduce, ordinal, slot) corruption
// draws do not shift with the crash schedule. An instance may be a delta
// image that ends a chain of `links` instances (CheckpointChain); it is
// usable only when every link of its chain has a verifiable replica. A
// restarted reduce attempt walks the ladder newest instance first, the
// links of its chain oldest first, slots in order: corrupt replicas are
// read and rejected, the first verifiable replica of each link is read,
// and with no usable instance left the attempt falls back to replaying
// the whole shuffle.
//
// The ladder is pure bookkeeping: the Replayer reports completed ops and
// crashes, asks where a restarted attempt resumes, and runs the restore
// chain the ladder builds like any other trace.

#ifndef ONEPASS_MR_CHECKPOINT_LADDER_H_
#define ONEPASS_MR_CHECKPOINT_LADDER_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/mr/config.h"
#include "src/mr/cost_trace.h"
#include "src/sim/fault_injector.h"

namespace onepass {

// One checkpoint the reduce data plane recorded: after consuming
// `watermark` deliveries the engine image measured `bytes` framed bytes
// (raw_bytes before codec/framing). `gate_op` is the trace op whose
// completion makes the instance durable in the time-plane replay. `links`
// is the number of images in the chain ending here (1: a full image; n: a
// delta on top of the previous n - 1 marks).
struct CheckpointMark {
  uint32_t watermark = 0;
  uint64_t bytes = 0;
  uint64_t raw_bytes = 0;
  uint32_t gate_op = 0;
  uint32_t links = 1;
};

class CheckpointLadder {
 public:
  // A replica read and rejected by verification on the way down.
  struct TriedReplica {
    int slot = 0;
    int node = 0;
    uint64_t bytes = 0;
  };
  // Where a restarted attempt resumes. node >= 0: a verifiable replica of
  // instance `ordinal` lives there, base_nodes hold one of each older link
  // of its chain (oldest first), and the attempt resumes from `watermark`.
  // Otherwise it replays everything — a fallback when `had_durable` (no
  // instance had a verifiable replica of every link).
  struct Choice {
    int ordinal = -1;
    uint32_t watermark = 0;
    int node = -1;
    std::vector<int> base_nodes;
    std::vector<TriedReplica> tried;
    bool had_durable = false;
  };

  // marks[r] lists reduce task r's checkpoints, oldest first. `config`
  // and `plan` must outlive the ladder.
  CheckpointLadder(const JobConfig& config, const sim::FaultPlan& plan,
                   std::vector<std::vector<CheckpointMark>> marks);

  // Op `op` of an attempt of reduce task r completed on `node`. When it
  // is a checkpoint's gate op, that instance becomes durable — once: a
  // backup attempt reaching the same gate later does not re-place it.
  void OpDone(int r, uint32_t op, int node);

  // Node n crashed: the replicas it held are gone, and none is placed
  // there from now on.
  void NodeDied(int n);

  // The newest instance whose every chain link has a verifiable replica;
  // each link's slots are walked once, in order. Pure given the durable
  // replicas and the plan.
  Choice Choose(int r) const;

  // Deliveries below this watermark are never re-fetched by a restarted
  // attempt of r (0 without a usable checkpoint).
  uint32_t Watermark(int r) const;

  // The ops a restarted attempt on `node` runs before its fetch and
  // consume streams start: every tried replica is read in full (a local
  // disk read when `node` holds it, a network pull otherwise), each read
  // that follows a rejected one waits out sim::RetryBackoff as a Stall op,
  // then each link of the chosen chain is read once, oldest first, with no
  // wait between links, and under a block codec the chain's summed raw
  // bytes are decoded. Requires choice.node >= 0.
  CostTrace RestoreChain(int r, const Choice& choice, int node) const;

 private:
  struct Durable {
    bool placed = false;
    std::vector<std::pair<int, int>> replicas;  // (slot, holder node)
  };

  const JobConfig& config_;
  const sim::FaultPlan& plan_;
  std::vector<std::vector<CheckpointMark>> marks_;
  std::vector<std::map<uint32_t, uint32_t>> gates_;  // gate op -> ordinal
  std::vector<std::vector<Durable>> durable_;        // by ordinal
  std::vector<char> dead_;
};

}  // namespace onepass

#endif  // ONEPASS_MR_CHECKPOINT_LADDER_H_
