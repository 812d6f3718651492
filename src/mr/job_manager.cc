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

// One batch replay: owns the engine, the pool, and every job's state.
class ManagerRun {
 public:
  ManagerRun(const ManagerConfig& mc, const std::vector<JobSubmission>& subs)
      : mc_(mc), subs_(subs), pool_(&engine_, mc.cluster, mc.policy) {}

  Result<ManagerResult> Run();

 private:
  // Waiting = in the admission queue; Done = terminal (outcome final).
  enum class Phase : uint8_t { kPending, kWaiting, kRunning, kDone };

  struct JobState {
    Phase phase = Phase::kPending;
    JobOutcome outcome;
    // In-flight simulated ops of a failed job still hold callbacks into
    // its Replayer (they early-return on arrival), so neither is
    // destroyed until the batch drains.
    std::unique_ptr<PreparedJob> prepared;
    std::unique_ptr<Replayer> replayer;
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
  void TryDispatch();
  Result<ManagerResult> Collect();

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
  if (!std::isfinite(mc_.timeline_bin_s) || mc_.timeline_bin_s <= 0) {
    return Status::InvalidArgument(
        "timeline_bin_s must be positive and finite");
  }
  for (size_t t = 0; t < mc_.tenants.size(); ++t) {
    if (mc_.tenants[t].weight <= 0) {
      return Status::InvalidArgument("tenant " + std::to_string(t) +
                                     ": weight must be positive");
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
  st.outcome.start_time = engine_.now();
  ++running_;

  // Lazy data plane: the job's real execution happens at dispatch, not at
  // submission — a rejected job never pays for it.
  Result<PreparedJob> prep =
      LocalCluster::PrepareJob(sub.spec, sub.config, *sub.input);
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

void ManagerRun::TryDispatch() {
  while (running_ < mc_.max_concurrent_jobs && !waiting_.empty()) {
    const int j = waiting_.front();
    waiting_.pop_front();
    Dispatch(j);
  }
}

Result<ManagerResult> ManagerRun::Collect() {
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
  sim::BinnedSeries iowait;
  RETURN_IF_ERROR(pool_.ExportUtilization(
      mc_.timeline_bin_s, std::max(out.makespan, mc_.timeline_bin_s),
      &out.cpu_util, &iowait));
  if (!out.cpu_util.values.empty()) {
    double sum = 0;
    for (double v : out.cpu_util.values) sum += v;
    out.avg_cpu_utilization =
        sum / static_cast<double>(out.cpu_util.values.size());
  }
  out.preemptions = pool_.preemptions();
  return out;
}

Result<ManagerResult> ManagerRun::Run() {
  RETURN_IF_ERROR(ValidateBatch());
  for (size_t t = 0; t < mc_.tenants.size(); ++t) {
    pool_.RegisterTenant(static_cast<int>(t), mc_.tenants[t].weight);
  }
  jobs_.resize(subs_.size());
  for (size_t j = 0; j < subs_.size(); ++j) {
    jobs_[j].outcome.tenant = subs_[j].tenant;
    jobs_[j].outcome.arrival_time = subs_[j].arrival_time;
    const int id = static_cast<int>(j);
    engine_.ScheduleAtStream(subs_[j].arrival_time, StreamOf(id),
                             [this, id]() { Arrive(id); });
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
