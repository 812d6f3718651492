// LocalCluster: runs a MapReduce job end to end.
//
// Execution is split into a *data plane* and a *time plane* (DESIGN.md §5):
//
//   1. Every map task executes for real (MapRunner), producing actual
//      per-partition output bytes and a cost trace.
//   2. A provisional map-only replay on the simulated cluster fixes the
//      map completion order (and push times under pipelining), which
//      determines the order reducers receive shuffle deliveries in.
//   3. Every reduce task executes for real: its GroupByEngine consumes the
//      deliveries in that order and finishes, producing real output and a
//      sectioned cost trace.
//   4. The full replay schedules all map and reduce traces on the
//      simulated nodes (slots, CPU cores, disks, NICs); reduce sections
//      gate on the simulated completion of the map push that feeds them.
//      The replay yields the running time, the paper's incremental
//      map/reduce progress curves (Definition 1), CPU utilization and
//      iowait timelines, and the Fig. 2(a)-style task activity series.
//
// Data ("who computed what, how many bytes spilled") is exact and
// engine-authoritative; time is simulated from the calibrated CostModel.
//
// PrepareJob runs steps 1-3 as a fixed list of named stages over one
// PreparedJob, each optional tier a single stage that runs or not:
//
//   MapPlane -> [NodeCombine] -> OrderDeliveries -> ReducePlane
//            -> [ResidentTransform] -> Package
//
// MapPlane is step 1, OrderDeliveries step 2 and ReducePlane step 3.
// NodeCombine (combine_scope == kNode, §5.10) folds co-located map outputs
// into virtual combine tasks before the order is fixed; ResidentTransform
// (shuffle_mode == kResident, §5.9) rewrites only time-plane charges;
// Package fills the reduce replay inputs, the progress totals and the CPU
// attribution. The map and reduce planes may execute across a
// work-stealing thread pool (JobConfig::data_plane_threads; DESIGN.md
// §5.3); steps 2 and 4, the time plane, are always single-threaded.
// Results are byte-identical at every thread count: tasks write only
// state keyed by their own task id, and per-task results merge in task-id
// order.
//
// The PreparedJob is self-contained, so a scheduler (src/mr/job_manager.h)
// can replay many prepared jobs on one shared SlotPool. Replay is the solo
// step 4, and RunJob is PrepareJob plus Replay; both fill the JobResult
// through Replayer::ExportResult, as the JobManager does.

#ifndef ONEPASS_MR_CLUSTER_H_
#define ONEPASS_MR_CLUSTER_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/dfs/chunk_store.h"
#include "src/mr/api.h"
#include "src/mr/config.h"
#include "src/mr/cost_trace.h"
#include "src/mr/metrics.h"
#include "src/mr/replayer.h"
#include "src/mr/resident.h"
#include "src/mr/types.h"
#include "src/sim/fault_injector.h"
#include "src/sim/timeline.h"

namespace onepass {

// A runnable query: the map function plus one (or both) reduce contracts.
struct JobSpec {
  std::string name;
  MapperFactory mapper;
  ReducerFactory reducer;              // values-list API (SM, MR-hash)
  IncrementalReducerFactory inc;       // init/cb/fn API (INC, DINC, combiner)
};

struct JobResult {
  JobMetrics metrics;

  double running_time = 0;     // simulated seconds, job start to last task
  double map_finish_time = 0;  // when the last map task completed
  int map_tasks = 0;
  int reduce_tasks = 0;

  // Progress curves in percent (paper Definition 1).
  sim::StepSeries map_progress;
  sim::StepSeries reduce_progress;
  // The three reduce-progress components, each in [0, 1].
  sim::StepSeries shuffle_progress;
  sim::StepSeries reduce_work_progress;
  sim::StepSeries output_progress;

  // Cluster-average CPU utilization and iowait (Fig. 2(b,c)-style).
  sim::BinnedSeries cpu_util;
  sim::BinnedSeries iowait;

  // Active-task counts by operation (Fig. 2(a)-style timeline).
  sim::StepSeries active_map;
  sim::StepSeries active_shuffle;
  sim::StepSeries active_merge;
  sim::StepSeries active_reduce;

  // Map output fetched from the mapper's disk because the reducer started
  // too late to catch it in memory (the R > slots second-wave penalty).
  uint64_t shuffle_from_disk_bytes = 0;

  // CPU attribution (totals across the cluster; divide by N for per node).
  double map_cpu_s = 0;
  double reduce_cpu_s = 0;

  // Host wall-clock seconds the two data-plane phases took: the map plane
  // (map tasks, plus node combine) up to its join, and the reduce plane
  // (reduce-engine runs and the in-order drain that merges their metrics
  // and copies their outputs into `outputs`). These measure the *real*
  // machine, not the simulation — they vary run to run and with
  // data_plane_threads, and are excluded from the determinism contract
  // (everything else in a JobResult is byte-identical across thread
  // counts). bench_parallel_scaling reports speedup from them.
  double map_plane_wall_s = 0;
  double reduce_plane_wall_s = 0;

  // Full output records (only when config.collect_outputs).
  std::vector<Record> outputs;
};

// The one judge of whether `spec` can run under `config`: OK exactly when
// RunJob would not reject it. It is config.Validate() plus the spec's
// rules: a mapper factory, the reduce contract of the engine
// (CheckReduceContract, src/engine/group_by_engine.h), and an
// IncrementalReducer under combine_scope == kNode. PrepareJob (so RunJob),
// RunJobChain (every stage, before stage 0) and JobManager::Run (every
// submission, before the first arrives) call it, so a job that cannot run
// runs no task. Use it to check a job without running it.
Status ValidateJob(const JobSpec& spec, const JobConfig& config);

// Everything the time plane needs to replay a job whose data plane already
// ran: the traces, delivery/checkpoint marks, fault plan, and the partial
// JobResult (data-plane metrics, outputs, CPU attribution, wall times).
// Self-contained — Replayer::MapTaskIn/ReduceTaskIn trace pointers point
// into the sibling map_traces/reduce_traces vectors, which moving the
// struct does not relocate. Replay the same PreparedJob any number of
// times; each replay's Replayer must not outlive it (it references config
// and plan).
struct PreparedJob {
  explicit PreparedJob(const JobConfig& cfg)
      : config(cfg), plan(config.faults, config.seed) {}
  PreparedJob(PreparedJob&&) = default;
  PreparedJob& operator=(PreparedJob&&) = default;
  PreparedJob(const PreparedJob&) = delete;
  PreparedJob& operator=(const PreparedJob&) = delete;

  JobConfig config;
  sim::FaultPlan plan;
  // Data-plane portion of the result; a replay fills in the rest.
  JobResult result;

  std::vector<CostTrace> map_traces;
  std::vector<CostTrace> reduce_traces;
  std::vector<Replayer::MapTaskIn> map_ins;
  std::vector<Replayer::ReduceTaskIn> reduce_ins;
  Replayer::Totals totals;
};

class LocalCluster {
 public:
  // Runs `spec` over `input` under `config`. The input's chunking must
  // match config.chunk_bytes (build it with MakeInput or ChunkStore).
  static Result<JobResult> RunJob(const JobSpec& spec, const JobConfig& config,
                                  const ChunkStore& input);

  // Runs the data plane only (steps 1-3) and returns the replay inputs.
  // The caller owns when and where the time plane runs — solo (RunJob) or
  // interleaved with other jobs on a shared SlotPool (JobManager).
  //
  // `resident` (may be null) carries one iteration's worth of chain state
  // under shuffle_mode == kResident (DESIGN.md §5.9): prior reduce state
  // to adopt, the placement to pin tasks to, where to save this job's
  // state, and the previous input store for input caching. It never
  // changes the data plane's outputs — phases 1-3 consume the same bytes
  // in the same order either way; only the recorded time-plane charges and
  // task placement differ.
  static Result<PreparedJob> PrepareJob(const JobSpec& spec,
                                        const JobConfig& config,
                                        const ChunkStore& input,
                                        const ResidentContext* resident =
                                            nullptr);

  // Step 4 alone: replays `pj` by itself on a fresh simulated cluster and
  // completes its JobResult. `placement` (may be null) receives the node
  // that won each of the input's map tasks and each reduce partition —
  // what the next stage of a resident chain pins its tasks to.
  static Result<JobResult> Replay(PreparedJob pj,
                                  PartitionPlacement* placement = nullptr);
};

}  // namespace onepass

#endif  // ONEPASS_MR_CLUSTER_H_
