// SortMergeEngine: the Hadoop baseline reduce side (§2.2).
//
// Sorted map-output segments accumulate in the shuffle buffer (B_r bytes).
// When the buffer fills, the segments are merged into one sorted run and
// spilled to disk (applying the combine function first when the workload
// has one, as Hadoop does). A background multi-pass merge combines the
// smallest F on-disk runs whenever 2F-1 files exist (the paper's Fig. 3
// policy, shared with the analytical model via MergeScheduler). Each
// on-disk run is a StoredRun (src/storage/stored_run.h), which applies
// the job's block codec; the engine charges the sizes a run reports and
// never branches on the codec.
//
// Only at Finish() — after ALL input has arrived and the multi-pass merge
// has produced at most 2F-1 runs — does the final merge stream records in
// key order into the reduce function. This is precisely the blocking
// behaviour the paper attacks: no reduce work, and no output, can happen
// before the merge completes.

#ifndef ONEPASS_ENGINE_SORT_MERGE_ENGINE_H_
#define ONEPASS_ENGINE_SORT_MERGE_ENGINE_H_

#include <vector>

#include "src/engine/group_by_engine.h"
#include "src/model/merge_tree.h"
#include "src/mr/cost_trace.h"
#include "src/storage/stored_run.h"
#include "src/util/kv_buffer.h"

namespace onepass {

class SortMergeEngine : public GroupByEngine {
 public:
  explicit SortMergeEngine(const EngineContext& ctx);

  Status Consume(const KvBuffer& segment, bool sorted) override;
  Status Finish() override;
  // Re-merges everything received so far and applies the reduce function,
  // writing a snapshot answer (charged as I/O + CPU, discarded from the
  // data plane). Does not modify the engine's state.
  Status Snapshot() override;
  // Buffered segments, the on-disk run manifest (dead entries kept
  // positionally so MergeScheduler file ids stay aligned), and the
  // scheduler's schedule state.
  Status SaveState(CheckpointWriter* w) const override;
  Status RestoreState(CheckpointReader* r) override;

 private:
  // Merges the buffered segments into one sorted run (combining if
  // enabled) and spills it to disk; may trigger a background merge.
  Status SpillBuffered();
  // Merges `inputs` (combining key groups if enabled), charging the merge
  // at kReduceMerge, and stores the result as a run, charging its encode
  // and disk write at `tag`.
  StoredRun MergeToRun(std::vector<const KvBuffer*> inputs, OpTag tag);
  // Reads runs `ids` back from disk into *loaded, listing them in
  // *inputs, and charges each read and decode at `tag`. Unless `keep`,
  // the runs are consumed.
  Status ReadRuns(const std::vector<int>& ids, OpTag tag, bool keep,
                  std::vector<KvBuffer>* loaded,
                  std::vector<const KvBuffer*>* inputs);

  // In-memory sorted segments awaiting merge.
  std::vector<KvBuffer> buffered_;
  uint64_t buffered_bytes_ = 0;
  // Prefix-coded block streams under a codec (DESIGN.md §5.5).
  RunCodec codec_;
  // On-disk sorted runs, indexed by MergeScheduler file id. Entries
  // consumed by background merges are left empty.
  std::vector<StoredRun> runs_;
  MergeScheduler scheduler_;
  bool use_combiner_;
};

}  // namespace onepass

#endif  // ONEPASS_ENGINE_SORT_MERGE_ENGINE_H_
