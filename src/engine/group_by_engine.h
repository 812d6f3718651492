// GroupByEngine: the pluggable reduce-side group-by implementation.
//
// A reduce task feeds its engine one shuffle delivery (a KvBuffer segment
// from a finished map task) at a time via Consume(), then calls Finish()
// once all input has arrived. The engine implements "group data by key,
// then apply the reduce function to each group" — this is exactly the
// component the paper swaps out: Hadoop's sort-merge vs the hash-based
// family (MR-hash / INC-hash / DINC-hash).
//
// Engines run on the real data plane: they move actual bytes through
// buffers, spill files, and merges, while charging every CPU and I/O cost
// to the task's CostTrace for the simulated time plane.

#ifndef ONEPASS_ENGINE_GROUP_BY_ENGINE_H_
#define ONEPASS_ENGINE_GROUP_BY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/mr/api.h"
#include "src/mr/config.h"
#include "src/mr/cost_trace.h"
#include "src/mr/metrics.h"
#include "src/mr/output.h"
#include "src/sim/fault_injector.h"
#include "src/storage/checkpoint.h"
#include "src/util/hash.h"
#include "src/util/kv_buffer.h"

namespace onepass {

// Bookkeeping bytes charged against reduce memory per resident key (its
// hash-table slot, counter and pointers) by INC-hash, DINC-hash and the
// bucket pass.
inline constexpr uint64_t kResidentEntryOverhead = 32;

// Spill buckets a hash engine uses when the config gives no size hint
// (expected_keys_per_reducer or expected_bytes_per_reducer of 0), and the
// recursion depth past which a bucket is reduced in memory whatever the
// budget (pathological hash collisions).
inline constexpr int kDefaultBuckets = 16;
inline constexpr int kMaxRecursionDepth = 16;

struct EngineContext {
  TraceRecorder* trace = nullptr;
  JobMetrics* metrics = nullptr;
  OutputCollector* out = nullptr;
  const JobConfig* config = nullptr;
  // Per-job independent hash family; levels 1+ belong to the reduce side
  // (level 0 is the map-side partitioner h1).
  UniversalHashFamily hashes{0};
  // Exactly one of these is set, matching the engine's API contract.
  Reducer* reducer = nullptr;
  IncrementalReducer* inc = nullptr;
  // True when the map side already applied the initialize function, so the
  // incoming "values" are states that Combine() can fold directly. INC and
  // DINC always receive states (CheckReduceContract); sort-merge with an
  // IncrementalReducer only under map_side_combine.
  bool values_are_states = false;
  // Data integrity (DESIGN.md §5.2): the job's fault plan, consulted by
  // the engine's spill-bucket layer for seeded corruption, and a stable
  // id naming this task in the plan's corruption keyspace (reduce task
  // index + 1; 0 in harnesses that do not inject).
  const sim::FaultPlan* faults = nullptr;
  uint64_t integrity_owner = 0;
};

class GroupByEngine {
 public:
  explicit GroupByEngine(const EngineContext& ctx) : ctx_(ctx) {}
  virtual ~GroupByEngine() = default;

  GroupByEngine(const GroupByEngine&) = delete;
  GroupByEngine& operator=(const GroupByEngine&) = delete;

  // Feeds one shuffle delivery. `sorted` is true when the segment is
  // key-ordered (sort-merge map output).
  virtual Status Consume(const KvBuffer& segment, bool sorted) = 0;

  // Completes the group-by after the last delivery: drains spills, applies
  // the reduce/finalize function to every group, and emits all output.
  virtual Status Finish() = 0;

  // Produces a snapshot of the answer over the data received so far
  // (MapReduce Online's periodic snapshots, §3.3(4)). Non-destructive.
  // The sort-merge implementation re-runs the merge over everything
  // received — the expensive, non-incremental behaviour the paper calls
  // out; incremental engines emit continuously and need no snapshots, so
  // the default is a no-op.
  virtual Status Snapshot() { return Status::OK(); }

  // Checkpointed recovery (DESIGN.md §5.6). SaveCheckpoint writes the
  // next image of this engine's checkpoint chain into `w`: it walks the
  // complete mid-stream state (SaveState) into a writer the chain binds,
  // which checks each field against the previous save's stream as it is
  // written, so the image is the full stream when the chain starts or
  // compacts and otherwise only what changed. The chain lives here so that
  // every caller replaying the same saves gets the same images. Saving is
  // non-destructive — Consume can continue right after, and a run that
  // checkpoints emits byte-identical output to one that does not.
  // RestoreCheckpoint loads a full stream (ResolveCheckpointChain of a
  // chain, or SaveState's) into a freshly constructed engine under the
  // same config and starts a new chain; consuming the remaining deliveries
  // then yields exactly the output the saved engine would have produced.
  // Neither charges trace or metrics: the cluster prices checkpoint I/O in
  // the time plane.
  Status SaveCheckpoint(CheckpointWriter* w) {
    return chain_.Save(w,
                       [this](CheckpointWriter* s) { return SaveState(s); });
  }
  Status RestoreCheckpoint(CheckpointReader* r) {
    chain_ = CheckpointChain();
    return RestoreState(r);
  }
  // Images in the chain ending at the last SaveCheckpoint (1: a full one).
  uint32_t checkpoint_links() const { return chain_.links(); }

  // The engine's complete state as one full field stream, and its inverse.
  virtual Status SaveState(CheckpointWriter* w) const = 0;
  virtual Status RestoreState(CheckpointReader* r) = 0;

 protected:
  EngineContext ctx_;

 private:
  CheckpointChain chain_;
};

// The reduce contract (§4), written once: sort-merge needs a Reducer, or an
// IncrementalReducer when its reducers receive states (`values_are_states`;
// it then also acts as the reduce-side combiner); MR-hash needs a Reducer;
// INC/DINC need an IncrementalReducer and receive states, because init()
// runs map-side right after the map function (§4.2, §5). ValidateJob and
// CreateGroupByEngine both judge a job by it.
Status CheckReduceContract(EngineKind kind, bool has_reducer, bool has_inc,
                           bool values_are_states);

// Creates the engine implementing `kind` from a context that meets the
// reduce contract.
Result<std::unique_ptr<GroupByEngine>> CreateGroupByEngine(
    EngineKind kind, const EngineContext& ctx);

// ValueIterator over a vector of views (used when a key's values have been
// collected in memory).
class VectorValueIterator : public ValueIterator {
 public:
  explicit VectorValueIterator(const std::vector<std::string_view>* values)
      : values_(values) {}

  bool Next(std::string_view* value) override {
    if (pos_ >= values_->size()) return false;
    *value = (*values_)[pos_++];
    return true;
  }

 private:
  const std::vector<std::string_view>* values_;
  size_t pos_ = 0;
};

}  // namespace onepass

#endif  // ONEPASS_ENGINE_GROUP_BY_ENGINE_H_
