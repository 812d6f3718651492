// CheckpointLadder: the restore side of reduce-state checkpointing
// (DESIGN.md §5.6) in one job's time-plane replay.
//
// The reduce data plane records a CheckpointMark per checkpoint it writes.
// In the replay, a mark becomes a durable *instance* once its gate op
// completes: replicas go to the writer plus the next
// checkpoint_replication - 1 alive nodes round-robin, each in a numbered
// slot. A crash drops the replicas its node held; the survivors keep their
// slot numbers, so the FaultPlan's per-(reduce, ordinal, slot) corruption
// draws do not shift with the crash schedule. A restarted reduce attempt
// walks the ladder newest instance first, slots in order: corrupt replicas
// are read and rejected, the first verifiable one is restored, and with
// none left the attempt falls back to replaying the whole shuffle.
//
// Like TaskTracker, the ladder is pure bookkeeping: the Replayer reports
// completed ops and crashes, asks where a restarted attempt resumes, and
// runs the restore chain the ladder builds like any other trace.

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
// completion makes the instance durable in the time-plane replay.
struct CheckpointMark {
  uint32_t watermark = 0;
  uint64_t bytes = 0;
  uint64_t raw_bytes = 0;
  uint32_t gate_op = 0;
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
  // instance `ordinal` lives there and the attempt resumes from
  // `watermark`. Otherwise it replays everything — a fallback when
  // `had_durable` (every replica of every instance was corrupt or lost).
  struct Choice {
    int ordinal = -1;
    uint32_t watermark = 0;
    int node = -1;
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

  // The newest instance with a verifiable replica, slots in order. Pure
  // given the durable replicas and the plan.
  Choice Choose(int r) const;

  // Deliveries below this watermark are never re-fetched by a restarted
  // attempt of r (0 without a usable checkpoint).
  uint32_t Watermark(int r) const;

  // The ops a restarted attempt on `node` runs before its fetch and
  // consume streams start: every tried replica is read in full (a local
  // disk read when `node` holds it, a network pull otherwise), each read
  // after the first waits out the shared fetch_retry backoff as a Stall
  // op, then the chosen replica is read and, under a block codec, decoded.
  // Requires choice.node >= 0.
  CostTrace RestoreChain(int r, const Choice& choice, int node) const;

 private:
  struct Durable {
    uint32_t ordinal = 0;
    std::vector<std::pair<int, int>> replicas;  // (slot, holder node)
  };

  const JobConfig& config_;
  const sim::FaultPlan& plan_;
  std::vector<std::vector<CheckpointMark>> marks_;
  std::vector<std::map<uint32_t, uint32_t>> gates_;  // gate op -> ordinal
  std::vector<std::vector<Durable>> durable_;        // oldest first
  std::vector<char> dead_;
};

}  // namespace onepass

#endif  // ONEPASS_MR_CHECKPOINT_LADDER_H_
