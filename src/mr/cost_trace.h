// Cost traces: the bridge between the real data plane and the simulated
// time plane.
//
// While a task executes (for real), it appends operations — CPU work, disk
// reads/writes, network transfers — to its CostTrace. The cluster replayer
// (src/mr/cluster.cc) later schedules these operations on the simulated
// node resources to obtain timing, contention, and utilization.
//
// Each op optionally carries *progress deltas* (shuffle bytes, reduce
// function work units, output bytes) that are applied when the op completes
// in simulated time; these drive the paper's incremental progress metric
// (Definition 1).
//
// Reduce traces are divided into sections: section i holds the work
// triggered by shuffle delivery i and cannot start before the producing map
// task has finished in simulated time; the last section is the post-input
// Finish phase.

#ifndef ONEPASS_MR_COST_TRACE_H_
#define ONEPASS_MR_COST_TRACE_H_

#include <cstdint>
#include <vector>

namespace onepass {

// Which resource an op occupies.
enum class OpResource : uint8_t {
  kCpu,
  kDisk,      // node's intermediate-data disk (HDD by default)
  kNet,       // node's NIC
  kStall,     // occupies nothing: a pure wait (retry backoff) of cpu_s
};

// Fine-grained operation category, used for the Fig. 2(a)-style task
// timeline and for CPU attribution (map vs reduce).
enum class OpTag : uint8_t {
  kStartup,        // task start cost
  kMapInput,       // reading the input chunk
  kMapFn,          // applying the map function
  kSort,           // map-side sort
  kMapSpill,       // map-side external-sort spill I/O
  kMapMerge,       // map-side multi-pass merge (CPU + I/O)
  kMapOutput,      // writing the final map output file
  kShuffle,        // network fetch of map output
  kReduceSpill,    // reduce-side spill I/O (runs or hash buckets)
  kReduceMerge,    // reduce-side multi-pass merge (blocking, not user work)
  kCombine,        // combine()/state-update work (user-visible progress)
  kReduceFn,       // reduce()/finalize() work (user-visible progress)
  kOutput,         // writing reduce output
  kCheckpoint,     // reduce-state checkpoint write/replicate/restore
  kNodeCombine,    // node-scope combiner: merge co-located map feeds
};

struct TraceOp {
  OpResource resource = OpResource::kCpu;
  OpTag tag = OpTag::kMapFn;
  double cpu_s = 0;       // service seconds for kCpu ops
  uint64_t bytes = 0;     // payload for kDisk/kNet ops
  uint32_t requests = 1;  // disk seeks / sequential I/O requests
  bool is_read = false;   // for kDisk: read vs write

  // Progress deltas applied at op completion (simulated time).
  uint64_t d_shuffle_bytes = 0;
  uint64_t d_reduce_work = 0;  // combine + finalize invocations
  uint64_t d_output_bytes = 0;
};

struct CostTrace {
  std::vector<TraceOp> ops;
  // ops[section_starts[i] .. section_starts[i+1]) belong to section i.
  std::vector<uint32_t> section_starts;

  uint32_t num_sections() const {
    return static_cast<uint32_t>(section_starts.size());
  }
};

// Append-only builder used by the data plane.
class TraceRecorder {
 public:
  // Consecutive same-tag CPU costs are merged into ops of at most roughly
  // this many simulated seconds each.
  static constexpr double kCpuOpGranularityS = 0.5;

  explicit TraceRecorder(CostTrace* trace) : trace_(trace) {}

  // Marks the start of a new section at the current op position.
  void BeginSection() {
    trace_->section_starts.push_back(
        static_cast<uint32_t>(trace_->ops.size()));
  }

  void Cpu(double seconds, OpTag tag, uint64_t d_reduce_work = 0) {
    if (seconds <= 0 && d_reduce_work == 0) return;
    // Coalesce with the previous op when it is a CPU op of the same tag in
    // the same section and still below the granularity cap. This keeps
    // traces compact (one op per ~kCpuOpGranularityS of work) without
    // changing total cost or the progress curve's resolution.
    if (!trace_->ops.empty()) {
      TraceOp& back = trace_->ops.back();
      const bool section_boundary =
          !trace_->section_starts.empty() &&
          trace_->section_starts.back() == trace_->ops.size();
      if (!section_boundary && back.resource == OpResource::kCpu &&
          back.tag == tag && back.cpu_s < kCpuOpGranularityS) {
        back.cpu_s += seconds;
        back.d_reduce_work += d_reduce_work;
        return;
      }
    }
    TraceOp op;
    op.resource = OpResource::kCpu;
    op.tag = tag;
    op.cpu_s = seconds;
    op.d_reduce_work = d_reduce_work;
    trace_->ops.push_back(op);
  }

  // A pure wait: the task holds its slot for `seconds` without occupying
  // any server (the retry backoff after a rejected checkpoint replica).
  void Stall(double seconds, OpTag tag) {
    TraceOp op;
    op.resource = OpResource::kStall;
    op.tag = tag;
    op.cpu_s = seconds;
    trace_->ops.push_back(op);
  }

  void DiskWrite(uint64_t bytes, OpTag tag, uint32_t requests = 1,
                 uint64_t d_output_bytes = 0) {
    TraceOp op;
    op.resource = OpResource::kDisk;
    op.tag = tag;
    op.bytes = bytes;
    op.requests = requests;
    op.is_read = false;
    op.d_output_bytes = d_output_bytes;
    trace_->ops.push_back(op);
  }

  void DiskRead(uint64_t bytes, OpTag tag, uint32_t requests = 1) {
    TraceOp op;
    op.resource = OpResource::kDisk;
    op.tag = tag;
    op.bytes = bytes;
    op.requests = requests;
    op.is_read = true;
    trace_->ops.push_back(op);
  }

  void Net(uint64_t bytes, OpTag tag, uint64_t d_shuffle_bytes = 0) {
    TraceOp op;
    op.resource = OpResource::kNet;
    op.tag = tag;
    op.bytes = bytes;
    op.d_shuffle_bytes = d_shuffle_bytes;
    trace_->ops.push_back(op);
  }

  CostTrace* trace() { return trace_; }

 private:
  CostTrace* trace_;
};

}  // namespace onepass

#endif  // ONEPASS_MR_COST_TRACE_H_
