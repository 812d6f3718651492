// JobManager: multi-tenant admission control and scheduling for a stream
// of MapReduce jobs sharing one simulated cluster (DESIGN.md §5.7).
//
// The historical RunJob gives a job the whole cluster; the JobManager
// instead admits a stream of submissions, runs each job's data plane
// lazily when the job is dispatched (LocalCluster::PrepareJob), and
// replays many jobs concurrently on one shared SlotPool:
//
//   * Admission control — at most max_concurrent_jobs replay at once and
//     at most max_queued_jobs wait. A submission arriving past both
//     bounds is *rejected immediately* with Status::Unavailable (typed
//     backpressure the client can act on) rather than hanging — graceful
//     degradation under burst overload.
//   * Fair-share scheduling — the pool arbitrates task slots by tenant
//     weight (SchedulePolicy::kFairShare), optionally evicting running
//     map attempts of over-share tenants (preemption).
//     SchedulePolicy::kFifo is the baseline: strict arrival order.
//   * Up-front validation — Run() passes every submission through
//     ValidateJob before the first one arrives, so a job that cannot run
//     fails the batch with InvalidArgument. A job that fails at run time
//     (e.g. max_attempts exhausted under its fault plan) ends kFailed
//     with its replay's Status while the rest of the batch runs on.
//
// Iterative chains are solo by construction (each stage's placement must
// be honored exactly, which a shared pool cannot promise): run them with
// RunJobChain (src/mr/job_chain.h), not here.
//
// Everything is deterministic: submissions replay on one sim::Engine,
// job j's events carry stream tag j + 1 (see src/sim/event_queue.h), and
// every scheduling decision is a pure function of the registered state.
// Two Run() calls with the same inputs produce identical ManagerResults
// at every data_plane_threads setting.

#ifndef ONEPASS_MR_JOB_MANAGER_H_
#define ONEPASS_MR_JOB_MANAGER_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/dfs/chunk_store.h"
#include "src/mr/cluster.h"
#include "src/mr/slot_pool.h"
#include "src/sim/timeline.h"

namespace onepass {

// A tenant sharing the cluster. Weight sets the fair-share target (a
// tenant at weight 2 may hold twice the running tasks of one at weight 1
// before yielding).
struct TenantSpec {
  std::string name;
  double weight = 1.0;
};

struct ManagerConfig {
  // Every submission's JobConfig::cluster must equal this shape — the
  // pool is one physical cluster, not per-job hardware.
  ClusterConfig cluster;

  SchedulePolicy policy = SchedulePolicy::kFairShare;
  bool preemption = true;

  // Admission bounds: jobs replaying concurrently / waiting for a slot.
  // max_queued_jobs = 0 rejects whenever all run slots are taken.
  int max_concurrent_jobs = 4;
  int max_queued_jobs = 8;

  // Tenant table; submissions refer to tenants by index. Empty = one
  // implicit tenant 0 with weight 1.
  std::vector<TenantSpec> tenants;

  // Bin for the cluster-wide utilization series (positive and finite).
  double timeline_bin_s = 30.0;
};

struct JobSubmission {
  JobSpec spec;
  JobConfig config;
  const ChunkStore* input = nullptr;  // must outlive Run()
  int tenant = 0;
  // Simulated arrival time; admission happens at this instant.
  double arrival_time = 0;
};

enum class JobOutcomeState : uint8_t {
  kCompleted,
  kRejected,  // admission queue full (Status::Unavailable)
  kFailed,    // non-OK replay/prepare status
};

std::string_view JobOutcomeStateName(JobOutcomeState s);

struct JobOutcome {
  JobOutcomeState state = JobOutcomeState::kFailed;
  Status status = Status::OK();
  int tenant = 0;

  double arrival_time = 0;
  double start_time = -1;   // dispatch (-1 = never dispatched)
  double finish_time = -1;  // terminal event (completion/rejection/...)

  // Filled for kCompleted only. running_time / map_finish_time are
  // relative to its dispatch; the series keep absolute cluster
  // time. cpu_util/iowait stay empty — utilization is cluster state
  // (ManagerResult::cpu_util), not a per-job quantity.
  JobResult result;
};

struct TenantStats {
  std::string name;
  int jobs_submitted = 0;
  int jobs_completed = 0;
  int jobs_rejected = 0;
  int jobs_failed = 0;
  // Sojourn latency (finish - arrival) over completed jobs,
  // nearest-rank percentiles.
  double mean_latency_s = 0;
  double p50_latency_s = 0;
  double p99_latency_s = 0;
  double max_latency_s = 0;
};

struct ManagerResult {
  std::vector<JobOutcome> jobs;      // by submission index
  std::vector<TenantStats> tenants;  // by tenant id
  double makespan = 0;               // latest terminal event
  // Cluster-average CPU utilization over [0, makespan].
  sim::BinnedSeries cpu_util;
  double avg_cpu_utilization = 0;
  uint64_t preemptions = 0;
  int rejected_jobs = 0;
};

class JobManager {
 public:
  // Replays the whole submission batch to completion. Fails fast
  // (InvalidArgument), before any job arrives, on a malformed batch —
  // mismatched cluster shapes, unknown tenants, negative times — or on a
  // submission ValidateJob rejects; the status names the job. Per-job
  // failures at run time land in the outcomes, not in the returned Status.
  static Result<ManagerResult> Run(const ManagerConfig& config,
                                   const std::vector<JobSubmission>& jobs);
};

}  // namespace onepass

#endif  // ONEPASS_MR_JOB_MANAGER_H_
