// Job and cluster configuration.

#ifndef ONEPASS_MR_CONFIG_H_
#define ONEPASS_MR_CONFIG_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/model/cost_model.h"
#include "src/sim/fault_injector.h"
#include "src/storage/block_format.h"
#include "src/storage/framed_io.h"

namespace onepass {

// Which reduce-side group-by implementation a job uses (§2.2, §4).
enum class EngineKind : uint8_t {
  kSortMerge,  // Hadoop baseline: sort map output, multi-pass merge reduce
  kMRHash,     // §4.1: hybrid-hash partitioning, values-list reduce
  kIncHash,    // §4.2: in-memory key->state table, first-come residency
  kDincHash,   // §4.3: FREQUENT-monitored hot keys
};

std::string_view EngineKindName(EngineKind kind);

// How map output reaches the reducers (DESIGN.md §5.9). kDisk is the
// paper's path: every push segment is written to the mapper's local disk
// and served from memory only within the retention window. kResident is
// the M3R-style path for iterative/repeated jobs whose shuffle fits in
// memory: every push segment stays in its producer's memory and is served
// from there for the whole job. Outputs are byte-identical between the
// two modes — only the time plane's charges differ.
enum class ShuffleMode : uint8_t {
  kDisk,
  kResident,
};

std::string_view ShuffleModeName(ShuffleMode mode);

// Where combining happens before map output is pushed (DESIGN.md §5.10).
// kTask is the classic map-side combiner: each map task collapses its own
// duplicates and pushes one segment per task — byte-identical to the
// pre-node-tier platform. kNode adds the in-node aggregation tier: map
// tasks scheduled on the same simulated node feed a shared flat-table
// combiner instead of pushing directly, and the node emits ONE combined,
// codec-encoded push per (node, partition) at the node barrier, so hot
// keys collapse across co-located tasks. The final answer is the same
// multiset of records either way; only segment boundaries (and hence
// per-task counters and the delivery schedule) differ.
enum class CombineScope : uint8_t {
  kTask,
  kNode,
};

std::string_view CombineScopeName(CombineScope scope);

struct ClusterConfig {
  int nodes = 10;           // N
  int cores_per_node = 4;
  int map_slots = 4;        // concurrent map tasks per node
  int reduce_slots = 4;     // concurrent reduce tasks per node
  // Fig. 2(d): give intermediate data its own device so HDFS input/output
  // does not contend with spills (the paper's SSD experiment).
  bool separate_intermediate_device = false;
};

struct JobConfig {
  ClusterConfig cluster;
  EngineKind engine = EngineKind::kSortMerge;

  // MapReduce Online-style pipelining (§2.2/§3.3): mappers push output
  // eagerly at spill granularity instead of publishing once at task end.
  // Sort-merge only (Validate() rejects it on the hash engines).
  bool pipelining = false;
  // Pipelining transmission granularity ("controlled by a parameter" in
  // HOP): the map cuts and pushes a sorted run every this many output
  // bytes. 0 = use the map buffer size (push only on natural spills).
  uint64_t pipeline_push_bytes = 64 << 10;
  // MapReduce Online's periodic snapshots (§3.3(4)): if N > 0, each
  // sort-merge reducer produces a snapshot answer after receiving each
  // 1/(N+1) fraction of its deliveries (e.g. N=3 -> at 25/50/75%) by
  // re-running the merge over everything so far — the costly,
  // non-incremental alternative to INC-hash's continuous output. Sort-merge
  // only.
  int snapshots = 0;

  // Hadoop parameters (Table 2, part 1).
  uint64_t chunk_bytes = 4 << 20;       // C, map input chunk size
  int merge_factor = 10;                // F
  int reducers_per_node = 4;            // R
  // DFS replication factor r. Only Validate reads it (1 <= r <= nodes):
  // the ChunkStore a job reads fixes the real number of replicas. It stays
  // settable because perfbench assigns it.
  int replication = 1;

  // Hardware description (Table 2, part 3).
  uint64_t map_buffer_bytes = 1 << 20;     // B_m per map task
  uint64_t reduce_memory_bytes = 4 << 20;  // B_r per reduce task

  // Whether the map side applies the IncrementalReducer as a combiner
  // (building an in-memory hash table of states, §5 "Hash-based Map
  // Output"). Off for workloads whose state does not compress (e.g.
  // sessionization, where every click must be kept).
  bool map_side_combine = false;

  // Combine scope (see CombineScope). kNode requires an IncrementalReducer
  // (the combine function) and is incompatible with pipelining, whose
  // eager per-spill pushes would defeat the node barrier. Like any
  // combiner tier, kNode assumes the combine function is commutative and
  // associative: the node barrier folds co-located task states in task-id
  // order, not reducer delivery order, so an order-sensitive combine
  // (e.g. sessionization's bounded session buffer) may legally produce
  // different state bytes than kTask. Validate() cannot check this.
  CombineScope combine_scope = CombineScope::kTask;
  // Memory budget for one node's combine tier, bytes, measured with
  // Arena::ApproxMemoryUsage through FlatTable::ApproxMemoryUsage. 0 =
  // unbounded. When a (node, partition) shard exceeds its share of the
  // budget, the shard degrades to a FREQUENT-sketch bounded-memory
  // combiner (DINC's discipline, PAPER.md §4.3): hot keys keep combining
  // in the monitored slots, everything else passes through uncombined.
  // Exactness is preserved — reducers re-combine the passthrough records.
  uint64_t node_combine_budget_bytes = 0;

  // Engine knobs.
  // Write-buffer page per disk bucket. Engines clamp the effective page so
  // that write buffers never consume more than half the reduce memory.
  uint64_t bucket_page_bytes = 16 << 10;
  // Estimated distinct keys per reducer; sizes the bucket count h for
  // INC/DINC (0 = use a default).
  uint64_t expected_keys_per_reducer = 0;
  // Estimated reduce input bytes per reducer; sizes MR-hash's bucket count
  // (0 = use a default).
  uint64_t expected_bytes_per_reducer = 0;
  // DINC-hash coverage threshold phi in (0,1]: if set, the job terminates
  // at end of input returning states with coverage lower bound >= phi and
  // skipping the disk-resident buckets (approximate early answers, §4.3).
  double dinc_coverage_threshold = 0;

  // Fault injection & recovery (simulated time plane; see
  // src/sim/fault_injector.h). Default: no faults.
  sim::FaultConfig faults;

  // Reduce-state checkpointing (DESIGN.md §5.6): every N shuffle
  // deliveries a reducer serializes its engine state through the
  // framed/CRC + block-codec path and writes it as
  // `checkpoint_replication` replicated copies (local disk + peers over
  // the network). A crashed reducer then resumes from the newest verified
  // replica and re-fetches only the segments past the checkpoint's
  // watermark instead of replaying the whole shuffle. 0 (the default)
  // disables checkpointing, leaving schedules byte-identical to the
  // pre-checkpoint platform.
  uint64_t checkpoint_interval_segments = 0;
  int checkpoint_replication = 2;

  // Shuffle delivery mode (see ShuffleMode). Resident mode changes only
  // what the time plane charges for publishing and re-reading map output;
  // the data plane, delivery order, and outputs are identical to kDisk.
  ShuffleMode shuffle_mode = ShuffleMode::kDisk;

  // Block codec for every spill/shuffle/bucket stream (DESIGN.md §5.5).
  // kNone keeps the raw varint record format on disk and on the wire —
  // byte-identical to the pre-codec platform, so goldens don't move. kLz
  // routes those streams through BlockBuilder (prefix coding on sorted
  // runs, run-length key grouping on hash buckets) plus the LZ block
  // codec; CRCs then cover the *encoded* image. Either way the records a
  // consumer sees are identical — only the bytes charged for moving them
  // change.
  BlockCodecKind block_codec = BlockCodecKind::kNone;
  // Raw bytes per encoded block: the constant kCodecBlockBytes, not a
  // setting. It keeps a name here because perfbench passes a job's
  // codec_block_bytes to EncodeCheckpoint.
  static constexpr uint64_t codec_block_bytes = kCodecBlockBytes;

  // Data integrity: CRC32C block framing + verification of every
  // simulated persistent/network stream (DESIGN.md §5.2), always on.
  // Verification work is accounted in JobMetrics but never charged to the
  // time plane. Constants only: the member stays because perfbench reads
  // config.integrity.
  IntegrityConfig integrity;

  // Host threads executing the data plane (map tasks and reduce-engine
  // runs; DESIGN.md §5.3). 1 = sequential; N > 1 = a work-stealing pool of
  // N threads; 0 = one per hardware thread. The simulated time plane is
  // always single-threaded, and results are byte-identical across every
  // setting: per-task outputs, traces, metrics, and fault/corruption draws
  // are keyed by task id, never by execution order.
  int data_plane_threads = 0;

  // Simulation.
  CostModel costs;
  uint64_t seed = 42;
  // Collect full job output into JobResult::outputs: the tests, the
  // examples and benches that check or print an answer, and perfbench.
  // Off, the output is still counted and costed, just not kept.
  bool collect_outputs = false;
  // Timeline sampling bin for utilization/iowait series, seconds.
  double timeline_bin_s = 30.0;

  // Rejects configurations no job could run under: empty/negative cluster
  // shapes, merge_factor < 2, zero chunk or buffer sizes, a timeline bin
  // that is not positive and finite, coverage thresholds outside [0, 1],
  // replication > nodes, malformed fault plans (negative times,
  // out-of-range nodes or rates), and engine-only features on another
  // engine: pipelining and snapshots > 0 need sort-merge (the hash
  // engines emit incrementally; their Snapshot is a no-op),
  // dinc_coverage_threshold > 0 needs DINC-hash, and snapshots must be
  // >= 0. ValidateJob (src/mr/cluster.h) calls it first.
  Status Validate() const;
};

}  // namespace onepass

#endif  // ONEPASS_MR_CONFIG_H_
