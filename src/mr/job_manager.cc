#include "src/mr/job_manager.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/mr/replayer.h"
#include "src/sim/event_queue.h"

namespace onepass {

std::string_view JobOutcomeStateName(JobOutcomeState s) {
  switch (s) {
    case JobOutcomeState::kCompleted:
      return "completed";
    case JobOutcomeState::kRejected:
      return "rejected";
    case JobOutcomeState::kFailed:
      return "failed";
    case JobOutcomeState::kDeadlineExceeded:
      return "deadline_exceeded";
  }
  return "unknown";
}

namespace {

bool SameCluster(const ClusterConfig& a, const ClusterConfig& b) {
  return a.nodes == b.nodes && a.cores_per_node == b.cores_per_node &&
         a.map_slots == b.map_slots && a.reduce_slots == b.reduce_slots &&
         a.separate_intermediate_device == b.separate_intermediate_device;
}

// Nearest-rank percentile of an ascending-sorted sample.
double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::max<size_t>(rank, 1);
  rank = std::min(rank, sorted.size());
  return sorted[rank - 1];
}

SlotPool::Options PoolOptions(const ManagerConfig& mc) {
  SlotPool::Options o;
  o.policy = mc.policy;
  o.preemption = mc.preemption;
  return o;
}

// One batch replay: owns the engine, the pool, and every job's state.
class ManagerRun {
 public:
  ManagerRun(const ManagerConfig& mc, const std::vector<JobSubmission>& subs)
      : mc_(mc), subs_(subs), pool_(&engine_, mc.cluster, PoolOptions(mc)) {}

  Result<ManagerResult> Run();

 private:
  // Waiting = in the admission queue; Backoff = between a failed run and
  // its retry dispatch; Done = terminal (outcome final).
  enum class Phase : uint8_t { kPending, kWaiting, kRunning, kBackoff, kDone };

  struct JobState {
    Phase phase = Phase::kPending;
    JobOutcome outcome;
    std::unique_ptr<PreparedJob> prepared;
    std::unique_ptr<Replayer> replayer;
    // Earlier attempts' state. In-flight simulated ops of an aborted
    // attempt still hold callbacks into its Replayer (they early-return
    // on arrival), so nothing is destroyed until the batch drains.
    std::vector<std::unique_ptr<PreparedJob>> retired_prepared;
    std::vector<std::unique_ptr<Replayer>> retired_replayers;
  };

  int NumTenants() const {
    return std::max<int>(1, static_cast<int>(mc_.tenants.size()));
  }
  static uint64_t StreamOf(int j) { return static_cast<uint64_t>(j) + 1; }

  Status ValidateBatch() const;
  void Arrive(int j);
  void Dispatch(int j);
  void OnDone(int j, const Status& s);
  void FinishJob(int j, JobOutcomeState state, Status status);
  void HitDeadline(int j);
  void TryDispatch();
  ManagerResult Collect();

  const ManagerConfig& mc_;
  const std::vector<JobSubmission>& subs_;
  sim::Engine engine_;
  SlotPool pool_;
  std::vector<JobState> jobs_;
  std::deque<int> waiting_;
  int running_ = 0;
};

Status ManagerRun::ValidateBatch() const {
  if (mc_.max_concurrent_jobs < 1) {
    return Status::InvalidArgument("max_concurrent_jobs must be >= 1");
  }
  if (mc_.max_queued_jobs < 0) {
    return Status::InvalidArgument("negative max_queued_jobs");
  }
  if (mc_.max_job_retries < 0) {
    return Status::InvalidArgument("negative max_job_retries");
  }
  if (mc_.timeline_bin_s <= 0) {
    return Status::InvalidArgument("timeline_bin_s must be positive");
  }
  RETURN_IF_ERROR(mc_.job_retry.Validate());
  for (size_t t = 0; t < mc_.tenants.size(); ++t) {
    if (mc_.tenants[t].weight <= 0) {
      return Status::InvalidArgument("tenant " + std::to_string(t) +
                                     ": weight must be positive");
    }
    if (mc_.tenants[t].max_running_tasks < 0) {
      return Status::InvalidArgument("tenant " + std::to_string(t) +
                                     ": negative max_running_tasks");
    }
  }
  for (size_t j = 0; j < subs_.size(); ++j) {
    const JobSubmission& sub = subs_[j];
    const std::string tag = "job " + std::to_string(j) + ": ";
    if (sub.input == nullptr) {
      return Status::InvalidArgument(tag + "null input");
    }
    if (sub.tenant < 0 || sub.tenant >= NumTenants()) {
      return Status::InvalidArgument(tag + "unknown tenant " +
                                     std::to_string(sub.tenant));
    }
    if (sub.arrival_time < 0) {
      return Status::InvalidArgument(tag + "negative arrival_time");
    }
    if (sub.deadline_s < 0) {
      return Status::InvalidArgument(tag + "negative deadline_s");
    }
    if (!SameCluster(sub.config.cluster, mc_.cluster)) {
      return Status::InvalidArgument(
          tag + "JobConfig::cluster does not match the manager's cluster");
    }
    if (const Status s = ValidateJob(sub.spec, sub.config); !s.ok()) {
      return Status(s.code(), tag + std::string(s.message()));
    }
  }
  return Status::OK();
}

void ManagerRun::Arrive(int j) {
  JobState& st = jobs_[static_cast<size_t>(j)];
  if (running_ < mc_.max_concurrent_jobs && waiting_.empty()) {
    Dispatch(j);
    return;
  }
  if (static_cast<int>(waiting_.size()) >= mc_.max_queued_jobs) {
    FinishJob(j, JobOutcomeState::kRejected,
              Status::Unavailable(
                  "admission queue full (" +
                  std::to_string(mc_.max_concurrent_jobs) + " running, " +
                  std::to_string(waiting_.size()) + " queued)"));
    return;
  }
  st.phase = Phase::kWaiting;
  waiting_.push_back(j);
}

void ManagerRun::Dispatch(int j) {
  JobState& st = jobs_[static_cast<size_t>(j)];
  const JobSubmission& sub = subs_[static_cast<size_t>(j)];
  st.phase = Phase::kRunning;
  if (st.outcome.start_time < 0) st.outcome.start_time = engine_.now();
  ++running_;

  // Lazy data plane: the job's real execution happens at dispatch, not at
  // submission — a rejected or dequeued job never pays for it. A retry is
  // a fresh run of the job under a derived seed (new fault draws).
  JobConfig cfg = sub.config;
  cfg.seed += 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(st.outcome.retries);
  Result<PreparedJob> prep =
      LocalCluster::PrepareJob(sub.spec, cfg, *sub.input);
  if (!prep.ok()) {
    OnDone(j, prep.status());
    return;
  }
  st.prepared = std::make_unique<PreparedJob>(std::move(prep).value());

  Replayer::Options opts;
  opts.job_id = j;
  opts.tenant = sub.tenant;
  opts.stream = StreamOf(j);
  st.replayer = std::make_unique<Replayer>(
      &engine_, &pool_, st.prepared->config, st.prepared->plan,
      st.prepared->map_ins, st.prepared->reduce_ins, st.prepared->totals,
      opts);
  st.replayer->Start([this, j](const Status& s) { OnDone(j, s); });
}

void ManagerRun::OnDone(int j, const Status& s) {
  JobState& st = jobs_[static_cast<size_t>(j)];
  CHECK(st.phase == Phase::kRunning);
  if (st.replayer != nullptr) pool_.UnregisterJob(j);
  --running_;

  if (s.ok()) {
    JobResult& r = st.prepared->result;
    st.replayer->ExportResult(&r);
    st.outcome.result = std::move(r);
    FinishJob(j, JobOutcomeState::kCompleted, Status::OK());
  } else if (s.IsDeadlineExceeded()) {
    FinishJob(j, JobOutcomeState::kDeadlineExceeded, s);
  } else if (st.outcome.retries < mc_.max_job_retries) {
    ++st.outcome.retries;
    st.phase = Phase::kBackoff;
    if (st.replayer != nullptr) {
      st.retired_replayers.push_back(std::move(st.replayer));
      st.retired_prepared.push_back(std::move(st.prepared));
    }
    const double backoff = mc_.job_retry.BackoffFor(
        st.outcome.retries - 1, static_cast<uint64_t>(j));
    engine_.ScheduleAfterStream(backoff, StreamOf(j), [this, j]() {
      JobState& s2 = jobs_[static_cast<size_t>(j)];
      if (s2.phase != Phase::kBackoff) return;  // deadline won the race
      // A retry queues ahead of fresh arrivals: the job has already
      // waited out a full run plus the backoff.
      if (running_ < mc_.max_concurrent_jobs) {
        Dispatch(j);
      } else {
        s2.phase = Phase::kWaiting;
        waiting_.push_front(j);
      }
    });
  } else {
    FinishJob(j, JobOutcomeState::kFailed, s);
  }
  TryDispatch();
}

void ManagerRun::FinishJob(int j, JobOutcomeState state, Status status) {
  JobState& st = jobs_[static_cast<size_t>(j)];
  st.phase = Phase::kDone;
  st.outcome.state = state;
  st.outcome.status = std::move(status);
  st.outcome.finish_time = engine_.now();
}

void ManagerRun::HitDeadline(int j) {
  JobState& st = jobs_[static_cast<size_t>(j)];
  Status expired = Status::DeadlineExceeded(
      "job " + std::to_string(j) + " exceeded its deadline of " +
      std::to_string(subs_[static_cast<size_t>(j)].deadline_s) + "s");
  switch (st.phase) {
    case Phase::kDone:
      return;  // already terminal
    case Phase::kWaiting: {
      auto it = std::find(waiting_.begin(), waiting_.end(), j);
      CHECK(it != waiting_.end());
      waiting_.erase(it);
      FinishJob(j, JobOutcomeState::kDeadlineExceeded, std::move(expired));
      return;
    }
    case Phase::kBackoff:
      // The pending retry timer sees kDone and becomes a no-op.
      FinishJob(j, JobOutcomeState::kDeadlineExceeded, std::move(expired));
      return;
    case Phase::kRunning:
      // Abort fails the replay, which fires OnDone with this status.
      st.replayer->Abort(std::move(expired));
      return;
    case Phase::kPending:
      CHECK(false);  // deadline events fire strictly after arrival
      return;
  }
}

void ManagerRun::TryDispatch() {
  while (running_ < mc_.max_concurrent_jobs && !waiting_.empty()) {
    const int j = waiting_.front();
    waiting_.pop_front();
    Dispatch(j);
  }
}

ManagerResult ManagerRun::Collect() {
  ManagerResult out;
  out.tenants.resize(static_cast<size_t>(NumTenants()));
  for (size_t t = 0; t < out.tenants.size(); ++t) {
    out.tenants[t].name = t < mc_.tenants.size()
                              ? mc_.tenants[t].name
                              : ("tenant" + std::to_string(t));
  }
  std::vector<std::vector<double>> latencies(out.tenants.size());
  out.jobs.reserve(jobs_.size());
  for (JobState& st : jobs_) {
    TenantStats& ts = out.tenants[static_cast<size_t>(st.outcome.tenant)];
    ++ts.jobs_submitted;
    switch (st.outcome.state) {
      case JobOutcomeState::kCompleted:
        ++ts.jobs_completed;
        latencies[static_cast<size_t>(st.outcome.tenant)].push_back(
            st.outcome.finish_time - st.outcome.arrival_time);
        break;
      case JobOutcomeState::kRejected:
        ++ts.jobs_rejected;
        ++out.rejected_jobs;
        break;
      case JobOutcomeState::kFailed:
        ++ts.jobs_failed;
        break;
      case JobOutcomeState::kDeadlineExceeded:
        ++ts.jobs_deadline_exceeded;
        break;
    }
    out.makespan = std::max(out.makespan, st.outcome.finish_time);
    out.jobs.push_back(std::move(st.outcome));
  }
  for (size_t t = 0; t < out.tenants.size(); ++t) {
    std::vector<double>& lat = latencies[t];
    if (lat.empty()) continue;
    std::sort(lat.begin(), lat.end());
    double sum = 0;
    for (double v : lat) sum += v;
    TenantStats& ts = out.tenants[t];
    ts.mean_latency_s = sum / static_cast<double>(lat.size());
    ts.p50_latency_s = NearestRank(lat, 0.50);
    ts.p99_latency_s = NearestRank(lat, 0.99);
    ts.max_latency_s = lat.back();
  }
  // Tenant-level Definition 1 progress: the mean of the tenant's completed
  // jobs' reduce-progress curves, sampled on the union of their step
  // times. Per-job curves are recorded in absolute cluster time and a
  // StepSeries reads 0 before its first point and holds 100 after its
  // last, so the mean is exactly "how far along is this tenant's finished
  // work at instant t".
  for (size_t t = 0; t < out.tenants.size(); ++t) {
    std::vector<const sim::StepSeries*> curves;
    for (const JobOutcome& jo : out.jobs) {
      if (jo.tenant == static_cast<int>(t) &&
          jo.state == JobOutcomeState::kCompleted) {
        curves.push_back(&jo.result.reduce_progress);
      }
    }
    if (curves.empty()) continue;
    std::vector<double> times;
    for (const sim::StepSeries* c : curves) {
      times.insert(times.end(), c->times.begin(), c->times.end());
    }
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());
    TenantStats& ts = out.tenants[t];
    for (double at : times) {
      double total = 0;
      for (const sim::StepSeries* c : curves) total += c->ValueAt(at);
      ts.progress.Add(at, total / static_cast<double>(curves.size()));
    }
    ts.mean_progress_at_makespan_half =
        ts.progress.ValueAt(out.makespan / 2);
  }
  sim::BinnedSeries iowait;
  pool_.ExportUtilization(mc_.timeline_bin_s,
                          std::max(out.makespan, mc_.timeline_bin_s),
                          &out.cpu_util, &iowait);
  if (!out.cpu_util.values.empty()) {
    double sum = 0;
    for (double v : out.cpu_util.values) sum += v;
    out.avg_cpu_utilization =
        sum / static_cast<double>(out.cpu_util.values.size());
  }
  out.preemptions = pool_.preemptions();
  out.throttle_skips = pool_.throttle_skips();
  return out;
}

Result<ManagerResult> ManagerRun::Run() {
  RETURN_IF_ERROR(ValidateBatch());
  for (size_t t = 0; t < mc_.tenants.size(); ++t) {
    pool_.RegisterTenant(static_cast<int>(t), mc_.tenants[t].weight,
                         mc_.tenants[t].max_running_tasks);
  }
  jobs_.resize(subs_.size());
  for (size_t j = 0; j < subs_.size(); ++j) {
    jobs_[j].outcome.tenant = subs_[j].tenant;
    jobs_[j].outcome.arrival_time = subs_[j].arrival_time;
    const int id = static_cast<int>(j);
    engine_.ScheduleAtStream(subs_[j].arrival_time, StreamOf(id),
                             [this, id]() { Arrive(id); });
    if (subs_[j].deadline_s > 0) {
      engine_.ScheduleAtStream(subs_[j].arrival_time + subs_[j].deadline_s,
                               StreamOf(id), [this, id]() {
                                 HitDeadline(id);
                               });
    }
  }
  engine_.Run();
  for (size_t j = 0; j < jobs_.size(); ++j) {
    if (jobs_[j].phase != Phase::kDone) {
      FinishJob(static_cast<int>(j), JobOutcomeState::kFailed,
                Status::Internal("job " + std::to_string(j) +
                                 " stalled: engine drained before a "
                                 "terminal event"));
    }
  }
  return Collect();
}

}  // namespace

Result<ManagerResult> JobManager::Run(const ManagerConfig& config,
                                      const std::vector<JobSubmission>& jobs) {
  ManagerRun run(config, jobs);
  return run.Run();
}

}  // namespace onepass
