#include "src/mr/replayer.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/mr/cluster.h"

namespace onepass {
namespace {

// Speculative execution (FaultConfig::speculative_execution): once this
// fraction of a phase's tasks has succeeded, a task whose single running
// attempt has run longer than kSpeculationSlowness x the median duration
// of the phase's successful attempts gets one backup attempt on another
// node; the first finisher wins.
constexpr double kSpeculationMinDoneFraction = 0.25;
constexpr double kSpeculationSlowness = 1.8;
// Straggler scan period, simulated seconds. Completions also trigger a
// scan; the periodic tick catches a lagging tail with nothing finishing,
// like Hadoop's speculator thread.
constexpr double kSpeculationCheckS = 0.25;
// A map task may be evicted by the slot arbiter at most this many times.
// Preemptions are budget-exempt, so without a cap a pathological share
// pattern could evict one task forever.
constexpr int kMaxPreemptionsPerTask = 3;

// The middle element (upper middle for even sizes); 0 when empty.
double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  return v[mid];
}

std::vector<std::vector<CheckpointMark>> CheckpointMarksOf(
    const std::vector<Replayer::ReduceTaskIn>& reduces) {
  std::vector<std::vector<CheckpointMark>> marks;
  marks.reserve(reduces.size());
  for (const Replayer::ReduceTaskIn& in : reduces) {
    marks.push_back(in.checkpoints);
  }
  return marks;
}

}  // namespace

Replayer::Activity Replayer::Categorize(bool is_map_task, OpTag tag) {
  if (is_map_task) return Activity::kMap;
  switch (tag) {
    case OpTag::kShuffle:
      return Activity::kShuffle;
    case OpTag::kReduceSpill:
    case OpTag::kReduceMerge:
      return Activity::kMerge;
    case OpTag::kCombine:
    case OpTag::kReduceFn:
    case OpTag::kOutput:
      return Activity::kReduce;
    default:
      return Activity::kNone;
  }
}

Replayer::Replayer(sim::Engine* engine, SlotPool* pool,
                   const JobConfig& config, const sim::FaultPlan& plan,
                   std::vector<MapTaskIn> maps,
                   std::vector<ReduceTaskIn> reduces, Totals totals,
                   Options options)
    : config_(config),
      plan_(plan),
      maps_(std::move(maps)),
      reduces_(std::move(reduces)),
      totals_(totals),
      opts_(options),
      resident_(config.shuffle_mode == ShuffleMode::kResident),
      engine_(engine),
      pool_(pool),
      ladder_(config, plan, CheckpointMarksOf(reduces_)) {
  CHECK_EQ(pool_->num_nodes(), config.cluster.nodes);
  dead_.assign(static_cast<size_t>(pool_->num_nodes()), 0);
  map_states_.resize(maps_.size());
  reduce_states_.resize(reduces_.size());
  push_ready_.resize(maps_.size());
  push_src_.resize(maps_.size());
  push_gen_.resize(maps_.size());
  gate_of_.resize(maps_.size());
  map_delta_applied_.resize(maps_.size());
  for (size_t m = 0; m < maps_.size(); ++m) {
    if (maps_[m].replicas.empty()) maps_[m].replicas = {maps_[m].node};
    push_ready_[m].assign(maps_[m].num_pushes, -1.0);
    push_src_[m].assign(maps_[m].num_pushes, -1);
    push_gen_[m].assign(maps_[m].num_pushes, 0);
    gate_of_[m].assign(maps_[m].num_pushes, 0);
    for (const auto& [gate, push] : maps_[m].gates) {
      gate_of_[m][push] = gate;
    }
    map_delta_applied_[m].assign(maps_[m].trace->ops.size(), false);
    map_states_[m].attempts.reserve(
        static_cast<size_t>(config.faults.max_attempts));
  }
  contrib_src_.assign(maps_.size(), -1);
  dependents_.resize(maps_.size());
  for (size_t m = 0; m < maps_.size(); ++m) {
    for (int d : maps_[m].deps) {
      dependents_[static_cast<size_t>(d)].push_back(static_cast<int>(m));
    }
  }
  reduce_delta_applied_.resize(reduces_.size());
  for (size_t r = 0; r < reduces_.size(); ++r) {
    reduce_delta_applied_[r].assign(reduces_[r].trace->ops.size(), false);
    reduce_states_[r].attempts.reserve(
        static_cast<size_t>(config.faults.max_attempts));
  }
}

void Replayer::Start(std::function<void(const Status&)> on_done) {
  CHECK(!registered_);
  registered_ = true;
  on_done_ = std::move(on_done);
  start_time_ = engine_->now();
  pool_->RegisterJob(opts_.job_id, opts_.tenant, this);
  // Data-local initial wave: every map on its primary replica, reduces
  // round-robin as assigned. Queue everything first, then pump — slot
  // grants must not interleave with enqueueing (the historical event
  // creation order, which the solo byte-identity goldens pin down).
  for (size_t m = 0; m < maps_.size(); ++m) {
    // Combine tasks wait for their contributors: the pool drops popped
    // non-runnable map entries, so queueing one before its deps finish
    // would lose it. The last dep's MapDone schedules it instead.
    if (!maps_[m].deps.empty()) continue;
    map_states_[m].queued = true;
    pool_->QueueMap(opts_.job_id, maps_[m].node,
                    {static_cast<int>(m), false});
  }
  for (size_t r = 0; r < reduces_.size(); ++r) {
    reduce_states_[r].queued = true;
    pool_->QueueReduce(opts_.job_id, reduces_[r].node,
                       {static_cast<int>(r), false});
  }
  for (const sim::CrashEvent& c : plan_.crashes()) {
    if (c.time >= 0) {
      engine_->ScheduleAtStream(start_time_ + c.time, opts_.stream,
                                [this, n = c.node]() { CrashNode(n); });
    } else {
      fraction_crashes_.push_back(c);
      fraction_fired_.push_back(false);
    }
  }
  for (int n = 0; n < pool_->num_nodes(); ++n) {
    pool_->PumpNode(n);
  }
  // A job admitted into a saturated cluster would otherwise wait for the
  // next natural slot release; let it claim its fair share immediately.
  pool_->PreemptForJob(opts_.job_id);
  if (config_.faults.speculative_execution && !JobComplete()) {
    ScheduleSpeculationTick();
  }
}

Status Replayer::Run() {
  solo_ = true;
  Start();
  const double horizon = engine_->Run();
  if (failed_) return status_;
  if (maps_completed_ != maps_.size() || reduces_done_ != reduces_.size()) {
    return Status::Internal("replay stalled: lost data never recovered");
  }
  end_time_ = completion_time_ >= 0 ? completion_time_ : horizon;
  return Status::OK();
}

void Replayer::NotifyDone(const Status& s) {
  if (notified_) return;
  notified_ = true;
  if (on_done_) {
    auto cb = std::move(on_done_);
    on_done_ = nullptr;
    cb(s);
  }
}

void Replayer::ExportResult(JobResult* result) const {
  result->running_time = end_time_ - start_time_;
  result->map_finish_time = last_map_finish_ - start_time_;
  result->shuffle_from_disk_bytes = shuffle_from_disk_bytes_;
  result->map_progress = map_progress_;
  result->reduce_progress = reduce_progress_;
  result->shuffle_progress = shuffle_series_;
  result->reduce_work_progress = work_series_;
  result->output_progress = output_series_;
  result->active_map = active_[0];
  result->active_shuffle = active_[1];
  result->active_merge = active_[2];
  result->active_reduce = active_[3];
  result->metrics.Merge(recovery_);
}

double Replayer::Duration(const TraceOp& op, int node) const {
  const CostModel& c = config_.costs;
  switch (op.resource) {
    case OpResource::kCpu:
      return op.cpu_s * plan_.CpuFactor(node);
    case OpResource::kDisk:
      return (op.requests * c.disk_seek_s +
              static_cast<double>(op.bytes) * c.disk_byte_s) *
             plan_.DiskFactor(node);
    case OpResource::kNet:
      return static_cast<double>(op.bytes) * c.net_byte_s;
    case OpResource::kStall:
      return op.cpu_s;  // a pure wait: no device, no straggler dilation
  }
  return 0;
}

double Replayer::WithDiskRetries(double dur, const TraceOp& op, bool is_map,
                                 int task, int attempt, size_t idx) {
  if (op.resource != OpResource::kDisk || !op.is_read) return dur;
  const int fails = plan_.DiskReadFailures(is_map, task, attempt, idx);
  if (fails <= 0) return dur;
  recovery_.disk_read_retries += static_cast<uint64_t>(fails);
  return dur * (1 + fails);
}

void Replayer::SubmitOp(const TraceOp& op, int node, double dur,
                        sim::Engine::Callback done) {
  ++in_flight_;
  if (op.resource == OpResource::kStall) {
    engine_->ScheduleAfterStream(dur, opts_.stream, std::move(done));
    return;
  }
  pool_->Route(node, op)->Submit(dur, opts_.stream, std::move(done));
}

void Replayer::SetActive(Activity a, int delta) {
  if (a == Activity::kNone) return;
  const int i = static_cast<int>(a);
  active_count_[i] += delta;
  active_[i].Add(engine_->now(), active_count_[i]);
}

void Replayer::ActInc(Attempt& at, Activity a) {
  if (a == Activity::kNone) return;
  ++at.act[static_cast<int>(a)];
  SetActive(a, +1);
}

void Replayer::ActDec(Attempt& at, Activity a) {
  if (a == Activity::kNone) return;
  --at.act[static_cast<int>(a)];
  SetActive(a, -1);
}

void Replayer::FlushActivity(Attempt& at) {
  // Clears an ended attempt's outstanding activity so in-flight op
  // completions (which early-return) don't leak active-task counts.
  for (int i = 0; i < 4; ++i) {
    if (at.act[i] != 0) {
      SetActive(static_cast<Activity>(i), -at.act[i]);
      at.act[i] = 0;
    }
  }
}

void Replayer::ApplyDeltasOnce(std::vector<bool>& applied, size_t idx,
                               const TraceOp& op) {
  // Progress deltas apply at most once per trace op across all attempts of
  // a task, so re-execution never double-counts progress.
  if (applied[idx]) return;
  applied[idx] = true;
  ApplyDeltas(op);
}

void Replayer::ApplyDeltas(const TraceOp& op) {
  bool changed = false;
  if (op.d_shuffle_bytes > 0 && totals_.shuffle_bytes > 0) {
    cum_shuffle_ += op.d_shuffle_bytes;
    shuffle_series_.Add(engine_->now(),
                        static_cast<double>(cum_shuffle_) /
                            static_cast<double>(totals_.shuffle_bytes));
    changed = true;
  }
  if (op.d_reduce_work > 0 && totals_.reduce_work > 0) {
    cum_work_ += op.d_reduce_work;
    work_series_.Add(engine_->now(),
                     static_cast<double>(cum_work_) /
                         static_cast<double>(totals_.reduce_work));
    changed = true;
  }
  if (op.d_output_bytes > 0 && totals_.output_bytes > 0) {
    cum_output_ += op.d_output_bytes;
    output_series_.Add(engine_->now(),
                       static_cast<double>(cum_output_) /
                           static_cast<double>(totals_.output_bytes));
    changed = true;
  }
  if (changed) RecordReduceProgress();
  if (op.d_shuffle_bytes > 0) FireReduceFractionCrashes();
}

void Replayer::RecordReduceProgress() {
  // Definition 1: 1/3 shuffle + 1/3 combine/reduce-fn + 1/3 output. A
  // third with nothing to do (an empty answer, a silent map) counts as
  // done once the job completes.
  auto third = [this](uint64_t done, uint64_t total) {
    if (total == 0) return JobComplete() ? 1.0 : 0.0;
    return static_cast<double>(done) / static_cast<double>(total);
  };
  const double p = third(cum_shuffle_, totals_.shuffle_bytes) +
                   third(cum_work_, totals_.reduce_work) +
                   third(cum_output_, totals_.output_bytes);
  reduce_progress_.Add(engine_->now(), 100.0 * p / 3.0);
}

void Replayer::Fail(Status s) {
  if (failed_) return;
  failed_ = true;
  status_ = std::move(s);
  // Release everything the job holds so the cluster moves on without it.
  // Queues are purged before attempts are killed: a freed slot must not
  // restart one of this job's own queued entries. In-flight op
  // completions early-return on failed_; solo callers observe only the
  // returned Status (the engine drains the dead events).
  for (int n = 0; n < pool_->num_nodes(); ++n) DropQueuedOn(n);
  KillAttemptsOn(-1);
  NotifyDone(status_);
}

bool Replayer::JobComplete() const {
  return maps_completed_ == maps_.size() &&
         reduces_done_ == reduces_.size();
}

bool Replayer::CanProgress() const {
  if (in_flight_ > 0) return true;
  // Every slot holder without an op in flight is a reduce attempt parked
  // on a push nobody will republish. Alone on the pool, no slot will free
  // for a queued entry either; sharing it, another job's attempt may.
  if (solo_) return false;
  auto queued = [](const auto& states) {
    for (const auto& st : states) {
      if (st.queued || st.spec_queued) return true;
    }
    return false;
  };
  return queued(map_states_) || queued(reduce_states_);
}

void Replayer::CheckCompletion() {
  if (completion_time_ < 0 && JobComplete()) {
    completion_time_ = engine_->now();
    end_time_ = completion_time_;
    if (totals_.shuffle_bytes == 0 || totals_.reduce_work == 0 ||
        totals_.output_bytes == 0) {
      RecordReduceProgress();  // the empty thirds are done now
    }
    NotifyDone(Status::OK());
  }
}

// ---- the attempt lifecycle ----

Replayer::Attempt& Replayer::AttemptOf(bool is_map, int t, int a) {
  return OnTask(is_map, t, [a](auto& st) -> Attempt& {
    return st.attempts[static_cast<size_t>(a)];
  });
}

bool Replayer::CanStart(bool is_map, int t) const {
  return OnTask(is_map, t, [this](const auto& st) {
    return st.budgeted() < config_.faults.max_attempts;
  });
}

bool Replayer::CheckBudget(bool is_map, int t) {
  if (CanStart(is_map, t)) return true;
  Fail(Status::ResourceExhausted(std::string(is_map ? "map" : "reduce") +
                                 " task " + std::to_string(t) +
                                 " exceeded max_attempts"));
  return false;
}

template <typename A>
int Replayer::NewAttempt(bool is_map, TaskState<A>& st, int node,
                         bool speculative) {
  CHECK_LT(st.budgeted(), config_.faults.max_attempts);
  A& at = st.attempts.emplace_back();
  at.node = node;
  at.start = engine_->now();
  at.speculative = speculative;
  ++(is_map ? recovery_.map_task_attempts : recovery_.reduce_task_attempts);
  if (speculative) ++recovery_.speculative_attempts;
  return static_cast<int>(st.attempts.size()) - 1;
}

void Replayer::EndAttempt(bool is_map, Attempt& at, AttemptState how) {
  CHECK(at.alive());
  at.state = how;
  FlushActivity(at);
  if (how == AttemptState::kSucceeded) {
    success_s_[is_map ? 0 : 1].push_back(engine_->now() - at.start);
    if (at.speculative) ++recovery_.speculative_wins;
    return;
  }
  // A later attempt redoes all of this work.
  ++(how == AttemptState::kKilled ? recovery_.killed_attempts
                                  : recovery_.preempted_attempts);
  recovery_.wasted_cpu_s += at.cpu_s;
  recovery_.recovery_bytes += at.io_bytes;
}

void Replayer::KillAttempt(bool is_map, int t, int a) {
  Attempt& at = AttemptOf(is_map, t, a);
  EndAttempt(is_map, at, AttemptState::kKilled);
  pool_->ReleaseSlot(opts_.job_id, at.node, is_map);
}

void Replayer::KillRunning(bool is_map, int t, int node) {
  // Re-reads the vector each step: a released slot may start (and
  // append) another attempt of this task.
  OnTask(is_map, t, [&](auto& st) {
    for (size_t a = 0; a < st.attempts.size(); ++a) {
      if (st.attempts[a].alive() &&
          (node < 0 || st.attempts[a].node == node)) {
        KillAttempt(is_map, t, static_cast<int>(a));
      }
    }
  });
}

void Replayer::KillAttemptsOn(int node) {
  for (size_t r = 0; r < reduces_.size(); ++r) {
    KillRunning(/*is_map=*/false, static_cast<int>(r), node);
  }
  for (size_t m = 0; m < maps_.size(); ++m) {
    KillRunning(/*is_map=*/true, static_cast<int>(m), node);
  }
}

int Replayer::WinAttempt(bool is_map, int t, int a) {
  Attempt& at = AttemptOf(is_map, t, a);
  EndAttempt(is_map, at, AttemptState::kSucceeded);
  const int node = at.node;
  // The backup race is over: losers' partial work is superseded.
  KillRunning(is_map, t, /*node=*/-1);
  return node;
}

int Replayer::WinnerNode(bool is_map, int t) const {
  // Any attempt running when one succeeds is killed, so the first
  // success in start order is also the first to finish.
  return OnTask(is_map, t, [](const auto& st) {
    for (const auto& at : st.attempts) {
      if (at.state == AttemptState::kSucceeded) return at.node;
    }
    return -1;
  });
}

void Replayer::DropQueuedOn(int node) {
  for (bool is_map : {true, false}) {
    for (const PendingTask& p :
         pool_->TakeJobQueue(opts_.job_id, node, is_map)) {
      QueueEntryPopped(is_map, p);
    }
  }
}

bool Replayer::AllPushesIntact(int m) const {
  for (uint32_t p = 0; p < maps_[static_cast<size_t>(m)].num_pushes; ++p) {
    if (push_ready_[static_cast<size_t>(m)][p] < 0) return false;
  }
  return true;
}

bool Replayer::ContributionReady(int d) const {
  return map_states_[static_cast<size_t>(d)].done &&
         contrib_src_[static_cast<size_t>(d)] >= 0;
}

bool Replayer::DepsReady(int m) const {
  for (int d : maps_[static_cast<size_t>(m)].deps) {
    if (!ContributionReady(d)) return false;
  }
  return true;
}

bool Replayer::OutputIntact(int m) const {
  if (!AllPushesIntact(m)) return false;
  return dependents_[static_cast<size_t>(m)].empty() ||
         contrib_src_[static_cast<size_t>(m)] >= 0;
}

// ---- slots and scheduling ----

int Replayer::PickMapNode(int m, int exclude) const {
  // Surviving replica holder of m's chunk with the lightest map load
  // (ties: replica order, i.e. the primary first). -1 when all are dead.
  int best = -1;
  int best_load = 0;
  for (int n : maps_[static_cast<size_t>(m)].replicas) {
    if (dead_[static_cast<size_t>(n)] || n == exclude) continue;
    const int load = pool_->MapLoad(n);
    if (best < 0 || load < best_load) {
      best = n;
      best_load = load;
    }
  }
  return best;
}

int Replayer::PickReduceNode(int exclude) const {
  // Alive node with the lightest reduce load (ties: lowest id). Reduce
  // state is rebuilt from re-fetched map outputs, so any node qualifies.
  int best = -1;
  int best_load = 0;
  for (int n = 0; n < pool_->num_nodes(); ++n) {
    if (dead_[static_cast<size_t>(n)] || n == exclude) continue;
    const int load = pool_->ReduceLoad(n);
    if (best < 0 || load < best_load) {
      best = n;
      best_load = load;
    }
  }
  return best;
}

void Replayer::QueueEntryPopped(bool is_map, const PendingTask& p) {
  OnTask(is_map, p.task, [&p](auto& st) {
    (p.speculative ? st.spec_queued : st.queued) = false;
  });
}

bool Replayer::EntryRunnable(bool is_map, const PendingTask& p) const {
  if (!CanStart(is_map, p.task)) return false;
  // A combine attempt (original or backup) reads its deps' node feeds; it
  // cannot start while any contribution is missing.
  if (is_map && !DepsReady(p.task)) return false;
  return OnTask(is_map, p.task, [&](const auto& st) {
    if (p.speculative) return !st.done && st.alive() == 1;
    if (st.alive() > 0) return false;
    // A completed map re-runs only to rematerialize lost output.
    return !st.done || (is_map && !OutputIntact(p.task));
  });
}

bool Replayer::PreemptMapOn(int node) {
  // Victim: the latest-started alive map attempt on `node` (least sunk
  // work) whose task is still under the preempt cap. Ties (same start
  // time): lowest task index — any fixed rule keeps replays identical.
  int bm = -1;
  int ba = -1;
  double best_start = 0;
  for (size_t m = 0; m < maps_.size(); ++m) {
    const MapTaskState& st = map_states_[m];
    if (st.Count(AttemptState::kPreempted) >= kMaxPreemptionsPerTask) {
      continue;
    }
    for (size_t a = 0; a < st.attempts.size(); ++a) {
      const MapAttempt& at = st.attempts[a];
      if (!at.alive() || at.node != node) continue;
      if (bm < 0 || at.start > best_start) {
        bm = static_cast<int>(m);
        ba = static_cast<int>(a);
        best_start = at.start;
      }
    }
  }
  if (bm < 0) return false;
  EndAttempt(/*is_map=*/true, AttemptOf(/*is_map=*/true, bm, ba),
             AttemptState::kPreempted);
  // Published pushes survive (the node is alive; only the attempt dies).
  // Releasing the slot pumps the node, handing it to the beneficiary;
  // only then does the victim task requeue through the normal scheduler.
  pool_->ReleaseSlot(opts_.job_id, node, /*is_map=*/true);
  ScheduleMapRun(bm);
  return true;
}

void Replayer::ScheduleMapRun(int m) {
  // Queues a fresh (non-speculative) execution of map m on a surviving
  // replica holder. No-op if an attempt is already running or queued;
  // fails the job when the attempt budget or every replica is gone.
  if (failed_) return;
  MapTaskState& st = map_states_[static_cast<size_t>(m)];
  if (st.queued || st.alive() > 0) return;
  if (st.done && OutputIntact(m)) return;
  if (!DepsReady(m)) {
    // Generalized lost-output rule (DESIGN.md §5.10): a combined push is
    // the output of every contributing map task, so re-materializing it
    // first re-runs any dep whose node-feed contribution died with its
    // node. The last dep's MapDone re-triggers this combine.
    for (int d : maps_[static_cast<size_t>(m)].deps) {
      if (!ContributionReady(d)) {
        ScheduleMapRun(d);
        if (failed_) return;
      }
    }
    return;
  }
  if (!CheckBudget(/*is_map=*/true, m)) return;
  const int n = PickMapNode(m, /*exclude=*/-1);
  if (n < 0) {
    Fail(Status::ResourceExhausted(
        "no surviving replica holds the input chunk of map task " +
        std::to_string(m) + " (replication " +
        std::to_string(maps_[static_cast<size_t>(m)].replicas.size()) +
        ")"));
    return;
  }
  st.queued = true;
  pool_->EnqueueMap(opts_.job_id, n, {m, false});
}

void Replayer::ScheduleReduceRun(int r) {
  if (failed_) return;
  ReduceTaskState& st = reduce_states_[static_cast<size_t>(r)];
  if (st.done || st.queued || st.alive() > 0) return;
  if (!CheckBudget(/*is_map=*/false, r)) return;
  const int n = PickReduceNode(/*exclude=*/-1);
  if (n < 0) {
    Fail(Status::ResourceExhausted("no alive node for reduce task " +
                                   std::to_string(r)));
    return;
  }
  // The new attempt refetches everything past its restore watermark;
  // make sure every map output it needs is rematerializing. Deliveries
  // folded into a durable checkpoint stay retired.
  const uint32_t watermark = ladder_.Watermark(r);
  for (size_t s = watermark;
       s < reduces_[static_cast<size_t>(r)].deliveries.size(); ++s) {
    const DeliveryRef& d = reduces_[static_cast<size_t>(r)].deliveries[s];
    if (push_ready_[static_cast<size_t>(d.map_task)][d.push] < 0) {
      ScheduleMapRun(d.map_task);
    }
    if (failed_) return;
  }
  st.queued = true;
  pool_->EnqueueReduce(opts_.job_id, n, {r, false});
}

// ---- speculative execution ----

void Replayer::MaybeSpeculate(bool is_map) {
  // After each task completion: once enough tasks of this kind finished,
  // give any task whose single running attempt lags the median a backup
  // attempt on another node. First finisher wins. Tasks are scanned, and
  // backups enqueued, in task-index order.
  if (failed_ || !config_.faults.speculative_execution) return;
  const size_t total = is_map ? maps_.size() : reduces_.size();
  if (total == 0) return;
  const std::vector<double>& durations = success_s_[is_map ? 0 : 1];
  if (static_cast<double>(durations.size()) <
      kSpeculationMinDoneFraction * static_cast<double>(total)) {
    return;
  }
  const double median = Median(durations);
  if (median <= 0) return;
  const double threshold = kSpeculationSlowness * median;
  for (int t = 0; t < static_cast<int>(total); ++t) {
    // The task's one running attempt, when nothing else is pending.
    const Attempt* running =
        OnTask(is_map, t, [](const auto& st) -> const Attempt* {
          if (st.done || st.queued || st.spec_queued || st.alive() != 1) {
            return nullptr;
          }
          for (const auto& at : st.attempts) {
            if (at.alive()) return &at;
          }
          return nullptr;
        });
    if (running == nullptr || !CanStart(is_map, t) ||
        engine_->now() - running->start <= threshold) {
      continue;
    }
    const int backup = is_map ? PickMapNode(t, running->node)
                              : PickReduceNode(running->node);
    if (backup < 0) continue;  // nowhere to run a backup
    OnTask(is_map, t, [](auto& st) { st.spec_queued = true; });
    if (is_map) {
      pool_->EnqueueMap(opts_.job_id, backup, {t, true});
    } else {
      pool_->EnqueueReduce(opts_.job_id, backup, {t, true});
    }
    if (failed_) return;
  }
}

void Replayer::ScheduleSpeculationTick() {
  engine_->ScheduleAfterStream(kSpeculationCheckS, opts_.stream, [this]() {
    if (failed_ || JobComplete()) return;
    MaybeSpeculate(/*is_map=*/true);
    MaybeSpeculate(/*is_map=*/false);
    // A job that cannot progress stops re-arming, so the engine drains
    // and the stall is reported instead of ticking forever.
    if (!failed_ && !JobComplete() && CanProgress()) {
      ScheduleSpeculationTick();
    }
  });
}

// ---- checkpoint restore (DESIGN.md §5.6) ----

void Replayer::RunRestoreOp(int r, int a, size_t i) {
  if (failed_) return;
  const ReduceAttempt& at = reduce_states_[static_cast<size_t>(r)]
                                .attempts[static_cast<size_t>(a)];
  if (!at.alive()) return;
  if (i >= at.restore.ops.size()) {
    StartFetch(r, a);
    TryConsume(r, a);
    return;
  }
  const TraceOp& op = at.restore.ops[i];
  SubmitOp(op, at.node, Duration(op, at.node),
           [this, r, a, i]() {
             --in_flight_;
             RunRestoreOp(r, a, i + 1);
           });
}

// ---- crash handling ----

bool Replayer::OutputNeeded(int m) const {
  // Lost-map-output rule: after a crash wiped (some of) m's published
  // pushes, is any unfinished reducer still going to ask for them? A
  // reducer with no running attempt (pending, queued, or awaiting
  // rescheduling) needs everything again; a running attempt needs exactly
  // the sections it has not fetched yet.
  if (reduces_.empty()) {
    // Provisional (map-only) replay: push-ready times define the
    // delivery-order contract, so every output is always "needed".
    return true;
  }
  for (size_t r = 0; r < reduces_.size(); ++r) {
    const ReduceTaskState& st = reduce_states_[r];
    if (st.done) continue;
    // A restarted attempt resumes from the newest usable checkpoint:
    // deliveries below its watermark are never re-fetched, so maps whose
    // outputs fall entirely under it stay retired.
    uint32_t watermark = 0;
    bool watermark_known = false;
    for (size_t s = 0; s < reduces_[r].deliveries.size(); ++s) {
      const DeliveryRef& d = reduces_[r].deliveries[s];
      if (d.map_task != m ||
          push_ready_[static_cast<size_t>(m)][d.push] >= 0) {
        continue;
      }
      if (st.alive() == 0) {
        if (!watermark_known) {
          watermark = ladder_.Watermark(static_cast<int>(r));
          watermark_known = true;
        }
        if (s >= watermark) return true;
        continue;
      }
      for (const ReduceAttempt& at : st.attempts) {
        if (at.alive() && !at.fetched[s]) return true;
      }
    }
  }
  return false;
}

void Replayer::CrashNode(int n) {
  // Fail-stop crash of node n *in this job's fault domain*: kills the
  // job's attempts there, loses the map outputs it stored for this job,
  // reschedules what must re-run. Other jobs sharing the pool are
  // untouched — their own plans decide their crashes.
  if (failed_ || dead_[static_cast<size_t>(n)] || JobComplete()) return;
  dead_[static_cast<size_t>(n)] = 1;
  ++recovery_.node_crashes;
  // Checkpoint replicas stored on n are gone. Pruning before the kill /
  // reschedule scans below means every restore-watermark query already
  // sees the post-crash replica view.
  ladder_.NodeDied(n);
  // Unstarted tasks this job queued here go back through the scheduler.
  DropQueuedOn(n);
  // Kill running attempts; reduces first so their fetched state is
  // settled before the lost-output scan asks who still needs what.
  KillAttemptsOn(n);
  // Node-feed contributions held on n are gone (node combine tier): any
  // running combine attempt that was consuming one dies with its input.
  // This runs before the lost-push scan below, whose ScheduleMapRun must
  // see the contributions as lost: a combine whose deps look intact would
  // be queued as runnable, dropped by the pool as not runnable, and never
  // re-queued. The restart scans re-run what is still needed — a killed
  // or push-lost combine reschedules through ScheduleMapRun, which first
  // re-materializes the missing contributions (generalized lineage).
  for (size_t m = 0; m < maps_.size(); ++m) {
    if (contrib_src_[m] != n) continue;
    contrib_src_[m] = -1;
    for (int c : dependents_[m]) KillRunning(/*is_map=*/true, c, -1);
  }
  // Map outputs stored on n are gone. A push a surviving attempt already
  // produced republishes immediately; the rest revert to unpublished.
  for (size_t m = 0; m < maps_.size(); ++m) {
    bool lost_any = false;
    for (uint32_t p = 0; p < maps_[m].num_pushes; ++p) {
      if (push_src_[m][p] != n || push_ready_[m][p] < 0) continue;
      bool republished = false;
      for (const MapAttempt& at : map_states_[m].attempts) {
        // op_idx >= gate+2 means the gate op's completion handler ran.
        if (at.alive() && !dead_[static_cast<size_t>(at.node)] &&
            at.op_idx >= gate_of_[m][p] + 2) {
          PushReady(static_cast<int>(m), p, at.node);
          republished = true;
          break;
        }
      }
      if (!republished) {
        push_ready_[m][p] = -1.0;
        push_src_[m][p] = -1;
        lost_any = true;
        // A resident push that dies with its node is a cache invalidation:
        // the segment falls back to re-execution through the ordinary
        // lost-output recovery below.
        if (resident_) {
          ++recovery_.resident_invalidated_segments;
          recovery_.resident_invalidated_bytes +=
              p < maps_[m].push_bytes.size() ? maps_[m].push_bytes[p] : 0;
        }
      }
    }
    if (lost_any && OutputNeeded(static_cast<int>(m))) {
      ScheduleMapRun(static_cast<int>(m));
      if (failed_) return;
    }
  }
  // Restart whatever the crash left without a running or queued
  // execution.
  for (size_t r = 0; r < reduces_.size(); ++r) {
    const ReduceTaskState& st = reduce_states_[r];
    if (!st.done && !st.queued && st.alive() == 0) {
      ScheduleReduceRun(static_cast<int>(r));
      if (failed_) return;
    }
  }
  for (size_t m = 0; m < maps_.size(); ++m) {
    const MapTaskState& st = map_states_[m];
    if (st.queued || st.alive() > 0) continue;
    if (!st.done) {
      ScheduleMapRun(static_cast<int>(m));
    } else if (!AllPushesIntact(static_cast<int>(m)) &&
               OutputNeeded(static_cast<int>(m))) {
      ScheduleMapRun(static_cast<int>(m));
    }
    if (failed_) return;
  }
}

void Replayer::FireFractionCrashes() {
  const double frac = static_cast<double>(maps_completed_) /
                      static_cast<double>(maps_.size());
  for (size_t i = 0; i < fraction_crashes_.size(); ++i) {
    if (!fraction_fired_[i] && fraction_crashes_[i].at_map_fraction > 0 &&
        frac >= fraction_crashes_[i].at_map_fraction - 1e-12) {
      fraction_fired_[i] = true;
      CrashNode(fraction_crashes_[i].node);
    }
  }
}

void Replayer::FireReduceFractionCrashes() {
  // Reduce-phase crashes trigger on shuffle-progress thresholds. The crash
  // itself is deferred one zero-delay event so it never reallocates the
  // attempt vectors underneath an op-completion callback that still holds
  // references into them; the event queue's (stream, seq) tie-break keeps
  // the deferral deterministic.
  if (totals_.shuffle_bytes == 0) return;
  const double frac = static_cast<double>(cum_shuffle_) /
                      static_cast<double>(totals_.shuffle_bytes);
  for (size_t i = 0; i < fraction_crashes_.size(); ++i) {
    if (fraction_fired_[i] ||
        fraction_crashes_[i].at_reduce_fraction <= 0) {
      continue;
    }
    if (frac >= fraction_crashes_[i].at_reduce_fraction - 1e-12) {
      fraction_fired_[i] = true;
      engine_->ScheduleAfterStream(
          0, opts_.stream,
          [this, n = fraction_crashes_[i].node]() { CrashNode(n); });
    }
  }
}

// ---- map side ----

void Replayer::StartMapAttempt(int m, int node, bool speculative) {
  MapTaskState& st = map_states_[static_cast<size_t>(m)];
  // A completed map only re-runs because its output was lost.
  if (st.done && !speculative) ++recovery_.lost_map_outputs;
  const int a = NewAttempt(/*is_map=*/true, st, node, speculative);
  ActInc(st.attempts[static_cast<size_t>(a)], Activity::kMap);
  RunNextMapOp(m, a);
}

void Replayer::RunNextMapOp(int m, int a) {
  if (failed_) return;
  MapAttempt& at = map_states_[static_cast<size_t>(m)]
                       .attempts[static_cast<size_t>(a)];
  const CostTrace& trace = *maps_[static_cast<size_t>(m)].trace;
  if (at.op_idx >= trace.ops.size()) {
    MapDone(m, a);
    return;
  }
  const size_t idx = at.op_idx++;
  const TraceOp& op = trace.ops[idx];
  const double dur = WithDiskRetries(Duration(op, at.node), op,
                                     /*is_map=*/true, m, a, idx);
  SubmitOp(op, at.node, dur, [this, m, a, idx]() {
    --in_flight_;
    if (failed_) return;
    MapAttempt& att = map_states_[static_cast<size_t>(m)]
                          .attempts[static_cast<size_t>(a)];
    if (!att.alive()) return;  // killed mid-op; activity already flushed
    const TraceOp& done_op = maps_[static_cast<size_t>(m)].trace->ops[idx];
    att.Charge(done_op);
    ApplyDeltasOnce(map_delta_applied_[static_cast<size_t>(m)], idx,
                    done_op);
    auto it = maps_[static_cast<size_t>(m)].gates.find(
        static_cast<uint32_t>(idx));
    if (it != maps_[static_cast<size_t>(m)].gates.end() &&
        push_ready_[static_cast<size_t>(m)][it->second] < 0) {
      PushReady(m, it->second, att.node);
    }
    RunNextMapOp(m, a);
  });
}

void Replayer::MapDone(int m, int a) {
  // The winner's complete push set supersedes the losers' partial one.
  const int node = WinAttempt(/*is_map=*/true, m, a);
  for (uint32_t p = 0; p < maps_[static_cast<size_t>(m)].num_pushes; ++p) {
    if (push_ready_[static_cast<size_t>(m)][p] < 0) {
      PushReady(m, p, node);
    } else {
      push_src_[static_cast<size_t>(m)][p] = node;
    }
  }
  MapTaskState& st = map_states_[static_cast<size_t>(m)];
  const bool first = !st.done;
  st.done = true;
  if (first) {
    ++maps_completed_;
    last_map_finish_ = std::max(last_map_finish_, engine_->now());
    map_progress_.Add(engine_->now(),
                      100.0 * static_cast<double>(maps_completed_) /
                          static_cast<double>(maps_.size()));
  }
  // The winner's node now holds this task's node-feed contribution (set
  // before the slot release so a pumped combine entry already sees its
  // deps ready); once every dep of a dependent combine task is in, the
  // combine is scheduled.
  contrib_src_[static_cast<size_t>(m)] = node;
  pool_->ReleaseSlot(opts_.job_id, node, /*is_map=*/true);
  for (int c : dependents_[static_cast<size_t>(m)]) {
    if (failed_) break;
    if (DepsReady(c)) ScheduleMapRun(c);
  }
  MaybeSpeculate(/*is_map=*/true);
  CheckCompletion();
  if (first) FireFractionCrashes();
}

void Replayer::PushReady(int m, uint32_t p, int src) {
  push_ready_[static_cast<size_t>(m)][p] = engine_->now();
  push_src_[static_cast<size_t>(m)][p] = src;
  const auto key = std::make_pair(m, p);
  auto it = push_waiters_.find(key);
  if (it == push_waiters_.end()) return;
  std::vector<std::pair<int, int>> waiters = std::move(it->second);
  push_waiters_.erase(it);
  for (const auto& [r, a] : waiters) {
    if (reduce_states_[static_cast<size_t>(r)]
            .attempts[static_cast<size_t>(a)].alive()) {
      StartFetch(r, a);
    }
  }
}

// ---- reduce side ----

void Replayer::StartReduceAttempt(int r, int node, bool speculative) {
  ReduceTaskState& st = reduce_states_[static_cast<size_t>(r)];
  const int a = NewAttempt(/*is_map=*/false, st, node, speculative);
  ReduceAttempt& at = st.attempts[static_cast<size_t>(a)];
  const size_t sections = reduces_[static_cast<size_t>(r)].deliveries.size();
  at.fetched.assign(sections, false);
  at.fetch_tries.assign(sections, 0);
  at.verify_tries.assign(sections, 0);
  // A later attempt resumes from the newest verifiable checkpoint
  // replica instead of replaying the whole shuffle (DESIGN.md §5.6):
  // deliveries below the watermark count as fetched and consumed, and
  // the restore reads (corrupt candidates included) are charged before
  // the fetch/consume streams start.
  const CheckpointLadder::Choice choice = ladder_.Choose(r);
  if (choice.node >= 0) {
    for (uint32_t s = 0; s < choice.watermark; ++s) {
      at.fetched[s] = true;
      ++recovery_.checkpoint_segments_skipped;
      recovery_.checkpoint_skipped_bytes +=
          reduces_[static_cast<size_t>(r)].deliveries[s].bytes;
    }
    at.fetch_section = choice.watermark;
    at.consume_section = choice.watermark;
    ++recovery_.checkpoints_restored;
    recovery_.checkpoint_corrupt_replicas +=
        static_cast<uint64_t>(choice.tried.size());
    at.restore = ladder_.RestoreChain(r, choice, node);
    for (const TraceOp& op : at.restore.ops) {
      recovery_.checkpoint_restore_bytes += op.bytes;
    }
    RunRestoreOp(r, a, 0);
    return;
  }
  if (choice.had_durable) ++recovery_.checkpoint_full_replays;
  StartFetch(r, a);
  TryConsume(r, a);
}

void Replayer::StartFetch(int r, int a) {
  // Fetch stream: pulls delivery fetch_section as soon as its push is
  // published. The data-plane trace records each delivery section's first
  // op as the network fetch; the replay may prepend a disk read on the
  // holder's node when the output has been evicted from its memory.
  if (failed_) return;
  ReduceAttempt& at = reduce_states_[static_cast<size_t>(r)]
                          .attempts[static_cast<size_t>(a)];
  if (!at.alive()) return;
  const ReduceTaskIn& task = reduces_[static_cast<size_t>(r)];
  if (at.fetch_section >= task.deliveries.size()) return;
  const uint32_t s = at.fetch_section;
  const DeliveryRef& d = task.deliveries[s];
  const double ready = push_ready_[static_cast<size_t>(d.map_task)][d.push];
  if (ready < 0) {
    push_waiters_[{d.map_task, d.push}].push_back({r, a});
    return;
  }
  // Fetch penalty: an attempt that was not yet running when the map
  // output was published (a second-wave or restarted reducer) finds it
  // evicted from the holder's memory and re-reads it from disk. A
  // resident push is exempt: it stays in the holder's memory for the
  // whole job, so there is no retention window to miss.
  if (d.bytes > 0 && !resident_ &&
      at.start > ready + config_.costs.map_output_retention_s) {
    shuffle_from_disk_bytes_ += d.bytes;
    TraceOp read;
    read.resource = OpResource::kDisk;
    read.tag = OpTag::kShuffle;
    read.bytes = d.bytes;
    read.is_read = true;
    const int src_node = push_src_[static_cast<size_t>(d.map_task)][d.push];
    ActInc(at, Activity::kShuffle);
    ++in_flight_;
    pool_->Route(src_node, read)
        ->Submit(Duration(read, src_node), opts_.stream, [this, r, a, s]() {
          --in_flight_;
          if (failed_) return;
          ReduceAttempt& att = reduce_states_[static_cast<size_t>(r)]
                                   .attempts[static_cast<size_t>(a)];
          if (!att.alive()) return;
          ActDec(att, Activity::kShuffle);
          FetchOverNet(r, a, s);
        });
    return;
  }
  FetchOverNet(r, a, s);
}

void Replayer::FetchOverNet(int r, int a, uint32_t s) {
  ReduceAttempt& at = reduce_states_[static_cast<size_t>(r)]
                          .attempts[static_cast<size_t>(a)];
  const ReduceTaskIn& task = reduces_[static_cast<size_t>(r)];
  const TraceOp& net_op = task.trace->ops[task.trace->section_starts[s]];
  CHECK(net_op.resource == OpResource::kNet);
  ActInc(at, Activity::kShuffle);
  ++in_flight_;
  pool_->Route(at.node, net_op)
      ->Submit(Duration(net_op, at.node), opts_.stream, [this, r, a, s]() {
        --in_flight_;
        if (failed_) return;
        ReduceAttempt& att = reduce_states_[static_cast<size_t>(r)]
                                 .attempts[static_cast<size_t>(a)];
        if (!att.alive()) return;
        ActDec(att, Activity::kShuffle);
        const ReduceTaskIn& t = reduces_[static_cast<size_t>(r)];
        const DeliveryRef& d = t.deliveries[s];
        // Source crashed mid-transfer: park until the map re-executes.
        if (push_ready_[static_cast<size_t>(d.map_task)][d.push] < 0) {
          StartFetch(r, a);
          return;
        }
        // Transient fetch failure: back off exponentially, retry.
        const int fails = plan_.FetchFailures(r, d.map_task, d.push);
        if (static_cast<int>(att.fetch_tries[s]) < fails) {
          const int try_i = att.fetch_tries[s]++;
          ++recovery_.shuffle_fetch_retries;
          const double backoff = sim::RetryBackoff(try_i);
          ++in_flight_;
          engine_->ScheduleAfterStream(backoff, opts_.stream, [this, r, a,
                                                               s]() {
            --in_flight_;
            if (failed_) return;
            ReduceAttempt& att2 = reduce_states_[static_cast<size_t>(r)]
                                      .attempts[static_cast<size_t>(a)];
            if (!att2.alive()) return;
            const DeliveryRef& d2 =
                reduces_[static_cast<size_t>(r)].deliveries[s];
            if (push_ready_[static_cast<size_t>(d2.map_task)][d2.push] <
                0) {
              StartFetch(r, a);  // source died during the backoff
              return;
            }
            FetchOverNet(r, a, s);
          });
          return;
        }
        // Silent wire corruption: the fetched bytes fail the segment CRC
        // stamped at publish time. The holder's stored copy is fine, so
        // the cheapest recovery is an immediate re-fetch.
        const int wire = plan_.FetchCorruptions(r, d.map_task, d.push);
        if (static_cast<int>(att.verify_tries[s]) < wire) {
          ++att.verify_tries[s];
          ++recovery_.corruptions_detected;
          ++recovery_.corruptions_recovered;
          recovery_.corruption_recovery_bytes += d.bytes;
          FetchOverNet(r, a, s);
          return;
        }
        // Corrupt stored map output: re-fetching cannot help (every copy
        // served fails verification), so only re-executing the producing
        // map task rematerializes a good push. Mark this push
        // unpublished and park until the re-run republishes it.
        const int bad_gens = plan_.MapOutputCorruptions(d.map_task, d.push);
        int& gen = push_gen_[static_cast<size_t>(d.map_task)][d.push];
        if (gen < bad_gens) {
          ++gen;
          ++recovery_.corruptions_detected;
          ++recovery_.corruptions_recovered;
          recovery_.corruption_recovery_bytes += d.bytes;
          push_ready_[static_cast<size_t>(d.map_task)][d.push] = -1.0;
          push_src_[static_cast<size_t>(d.map_task)][d.push] = -1;
          ScheduleMapRun(d.map_task);
          if (failed_) return;
          StartFetch(r, a);
          return;
        }
        const size_t idx = t.trace->section_starts[s];
        const TraceOp& done_op = t.trace->ops[idx];
        att.Charge(done_op);
        ApplyDeltasOnce(reduce_delta_applied_[static_cast<size_t>(r)], idx,
                        done_op);
        // Attempt 0's fetches are first-time shuffle work; anything a
        // later (restarted or speculative) attempt pulls is recovery
        // re-fetch traffic.
        if (a > 0) recovery_.shuffle_refetched_bytes += d.bytes;
        if (resident_) recovery_.resident_hit_bytes += d.bytes;
        att.fetched[s] = true;
        ++att.fetch_section;
        StartFetch(r, a);
        if (att.consume_blocked) {
          att.consume_blocked = false;
          TryConsume(r, a);
        }
      });
}

void Replayer::TryConsume(int r, int a) {
  // Consume stream: runs each section's engine work in order; delivery
  // sections wait for their fetch; the final section (engine Finish)
  // runs after every delivery has been consumed.
  if (failed_) return;
  ReduceAttempt& at = reduce_states_[static_cast<size_t>(r)]
                          .attempts[static_cast<size_t>(a)];
  if (!at.alive()) return;
  const ReduceTaskIn& task = reduces_[static_cast<size_t>(r)];
  const CostTrace& trace = *task.trace;
  const uint32_t num_sections = trace.num_sections();
  if (at.consume_section >= num_sections) {
    ReduceDone(r, a);
    return;
  }
  const bool is_delivery = at.consume_section < task.deliveries.size();
  if (is_delivery && !at.fetched[at.consume_section]) {
    at.consume_blocked = true;
    return;
  }
  if (!at.in_section) {
    // Skip the net fetch op (handled by the fetch stream).
    at.op_idx =
        trace.section_starts[at.consume_section] + (is_delivery ? 1 : 0);
    at.in_section = true;
  }
  const uint32_t next_section_start =
      at.consume_section + 1 < num_sections
          ? trace.section_starts[at.consume_section + 1]
          : static_cast<uint32_t>(trace.ops.size());
  if (at.op_idx >= next_section_start) {
    ++at.consume_section;
    at.in_section = false;
    TryConsume(r, a);
    return;
  }
  const size_t idx = at.op_idx++;
  const TraceOp& op = trace.ops[idx];
  const Activity act = Categorize(/*is_map_task=*/false, op.tag);
  const double dur = WithDiskRetries(Duration(op, at.node), op,
                                     /*is_map=*/false, r, a, idx);
  ActInc(at, act);
  SubmitOp(op, at.node, dur, [this, r, a, idx, act]() {
    --in_flight_;
    if (failed_) return;
    ReduceAttempt& att = reduce_states_[static_cast<size_t>(r)]
                             .attempts[static_cast<size_t>(a)];
    if (!att.alive()) return;
    ActDec(att, act);
    const TraceOp& done_op =
        reduces_[static_cast<size_t>(r)].trace->ops[idx];
    att.Charge(done_op);
    ApplyDeltasOnce(reduce_delta_applied_[static_cast<size_t>(r)], idx,
                    done_op);
    ladder_.OpDone(r, static_cast<uint32_t>(idx), att.node);
    TryConsume(r, a);
  });
}

void Replayer::ReduceDone(int r, int a) {
  const int node = WinAttempt(/*is_map=*/false, r, a);
  ReduceTaskState& st = reduce_states_[static_cast<size_t>(r)];
  if (!st.done) ++reduces_done_;
  st.done = true;
  pool_->ReleaseSlot(opts_.job_id, node, /*is_map=*/false);
  MaybeSpeculate(/*is_map=*/false);
  CheckCompletion();
}

}  // namespace onepass
