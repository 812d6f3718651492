// MapRunner: executes one map task on the data plane.
//
// Two output organizations, matching §2.2 vs §5 of the paper:
//
//  * Sort path (Hadoop/sort-merge): emitted pairs buffer up to B_m bytes,
//    are sorted by (partition, key) and spilled as sorted runs; runs are
//    merged (multi-pass with factor F) into the final map output file. The
//    sort is the map-side CPU cost the hash engines eliminate. Equal keys
//    leave a buffer in emit order, and the merge keeps run order, so the
//    output depends only on the emit sequence. With a combiner, emits fold
//    into a per-buffer hash table as they arrive (in emit order), only the
//    distinct keys are sorted, and key groups collapse again at the merge;
//    the simulated clock still charges the sort of every buffered record.
//    Each run's partitions are StoredRuns (src/storage/stored_run.h), which
//    apply the block codec, and the merge reads each run back through
//    VerifiedRead, the rebuild loop spill runs share with bucket files.
//
//  * Hash path (our platform): no sort. Without a combiner, records are
//    grouped by partition id in one scan; for incremental engines,
//    initialize still runs per record so reducers receive states. With
//    a combiner, emits fold into the same in-memory table the sort
//    path's combiner uses, as they arrive, and each flush hands over the
//    key-state pairs in insertion order.
//
// Pipelining (MapReduce Online): on the sort path, each spill is pushed to
// the reducers as soon as it is written (gate = the spill's write op) and
// the map-side merge is skipped — the merge work moves to the reducers,
// reproducing §3.3's "pipelining only rebalances the sort-merge work".

#ifndef ONEPASS_MR_MAP_RUNNER_H_
#define ONEPASS_MR_MAP_RUNNER_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/dfs/chunk_reader.h"
#include "src/mr/api.h"
#include "src/mr/config.h"
#include "src/mr/cost_trace.h"
#include "src/mr/metrics.h"
#include "src/sim/fault_injector.h"
#include "src/util/hash.h"
#include "src/util/kv_buffer.h"

namespace onepass {

// How the map side organizes its output. The three buffered modes share
// one map buffer, and both folds (kSortCombine, kHashCombine) run in emit
// order.
enum class MapOutputMode : uint8_t {
  kSortRaw,      // stable sort by (partition, key); raw values
  kSortCombine,  // fold per key as emitted, sort the distinct keys; states
  kHashRaw,      // group by partition only; raw values
  kHashInit,     // group by partition; initialize() per record
  kHashCombine,  // fold per key as emitted, insertion order; states
};

// Returns the mode a job's configuration implies, for any config (so
// ValidateJob can ask it before the job is known to be runnable).
MapOutputMode SelectMapOutputMode(const JobConfig& config, bool has_inc);

// True when the mode produces state-valued output.
inline bool ModeProducesStates(MapOutputMode mode) {
  return mode == MapOutputMode::kSortCombine ||
         mode == MapOutputMode::kHashInit ||
         mode == MapOutputMode::kHashCombine;
}

// One publishable unit of map output. Non-pipelined tasks have exactly one
// push; pipelined tasks publish one per spill.
struct PushSegment {
  // Completion of trace op `gate_op` makes this push fetchable.
  uint32_t gate_op = 0;
  std::vector<KvBuffer> partitions;  // indexed by reducer partition
  // Per-partition block streams (DESIGN.md §5.5), present iff the job runs
  // with a block codec. When non-empty, `partitions` holds empty buffers
  // (the encoded image supersedes them — reducers decode on fetch), and
  // `bytes`/`crcs` describe the encoded bytes: what "disk" and the wire
  // carry is the block stream, so checksums cover post-compression bytes.
  std::vector<std::string> encoded;
  uint64_t bytes = 0;
  // CRC32C per partition segment, recorded at publish time. Reducers
  // re-verify each fetched segment against these (DESIGN.md §5.2).
  std::vector<uint32_t> crcs;
};

// The publish tail MapRunner shares with the node combine tier (DESIGN.md
// §5.10): encodes `parts` under an active block codec (prefix-coded when
// `sorted`, key-grouped otherwise), charges the push's codec CPU and disk
// write at `tag`, counts it as map output (`bytes` raw bytes, `records`
// records), gates the push on that write and stamps its CRCs.
PushSegment PublishPushSegment(const JobConfig& config,
                               std::vector<KvBuffer> parts, uint64_t bytes,
                               uint64_t records, bool sorted, OpTag tag,
                               TraceRecorder* trace, JobMetrics* metrics);

struct MapTaskOutput {
  CostTrace trace;
  JobMetrics metrics;
  std::vector<PushSegment> pushes;
  bool sorted = false;  // segments are key-ordered (sort path)

  // Node combine tier (combine_scope == kNode; DESIGN.md §5.10): instead
  // of pushing, the task hands its raw per-partition output to the node's
  // combiner. The feed never touches disk or the codec — the node barrier
  // task does that once for the whole node. Empty under kTask.
  std::vector<KvBuffer> node_feed;
  uint64_t node_feed_bytes = 0;
  uint64_t node_feed_records = 0;
};

class MapRunner {
 public:
  // `partitioner` is h1; `total_partitions` = N*R reducers. `faults` may
  // be null (no corruption injection); `task_index` names this map task
  // in the fault plan's corruption keyspace.
  MapRunner(const JobConfig& config, MapOutputMode mode,
            UniversalHash partitioner, int total_partitions, Mapper* mapper,
            IncrementalReducer* inc,
            const sim::FaultPlan* faults = nullptr, int task_index = 0);

  // Runs the map function over one input chunk. `read_stats`, when given,
  // carries the verified DFS read's accounting (extra replica reads after
  // a quarantine, re-replication traffic) to charge to this task's trace
  // and metrics. Returns Status::Corruption when a spill run's stored
  // image does not decode.
  // Const and reentrant: a MapRunner holds no mutable state, every
  // fault/corruption draw is a pure function of (task_index, stream), so
  // concurrent runners over distinct tasks share nothing that can race
  // (DESIGN.md §5.3).
  Result<MapTaskOutput> Run(const KvBuffer& chunk,
                            const ChunkReadStats* read_stats = nullptr) const;

 private:
  Status RunSortPath(const KvBuffer& chunk, double map_fn_cost,
                     TraceRecorder* trace, MapTaskOutput* out) const;
  // Terminal step for a task's final per-partition output: under kTask,
  // encode + charge the disk write and append a PushSegment (the
  // historical path, byte-identical); under kNode, charge the memory-speed
  // handoff at OpTag::kNodeCombine and store the raw partitions as the
  // task's node_feed — the node barrier task publishes instead.
  void PublishOrFeed(std::vector<KvBuffer> parts, uint64_t bytes,
                     uint64_t records, bool sorted, TraceRecorder* trace,
                     MapTaskOutput* out) const;

  const JobConfig& config_;
  MapOutputMode mode_;
  UniversalHash partitioner_;
  int total_partitions_;
  Mapper* mapper_;
  IncrementalReducer* inc_;
  const sim::FaultPlan* faults_;
  int task_index_;
};

}  // namespace onepass

#endif  // ONEPASS_MR_MAP_RUNNER_H_
