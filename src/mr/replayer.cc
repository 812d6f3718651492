#include "src/mr/replayer.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/mr/cluster.h"

namespace onepass {
namespace {

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
      tracker_(static_cast<int>(maps_.size()),
               static_cast<int>(reduces_.size()),
               config.faults.max_attempts),
      opts_(options),
      stream_(options.stream),
      engine_(engine),
      pool_(pool),
      ladder_(config, plan, CheckpointMarksOf(reduces_)) {
  CHECK_EQ(pool_->num_nodes(), config.cluster.nodes);
  dead_.assign(static_cast<size_t>(pool_->num_nodes()), 0);
  map_winner_.assign(maps_.size(), -1);
  reduce_winner_.assign(reduces_.size(), -1);
  map_states_.resize(maps_.size());
  reduce_states_.resize(reduces_.size());
  preempt_count_.assign(maps_.size(), 0);
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
      engine_->ScheduleAtStream(start_time_ + c.time, stream_,
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
  Start();
  const double horizon = engine_->Run();
  if (failed_) return status_;
  if (maps_completed_ != maps_.size() || reduces_done_ != reduces_.size()) {
    return Status::Internal("replay stalled: lost data never recovered");
  }
  end_time_ = completion_time_ >= 0 ? completion_time_ : horizon;
  return Status::OK();
}

void Replayer::Abort(Status s) {
  if (failed_ || JobComplete()) return;
  Fail(std::move(s));
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
  JobMetrics* m = &result->metrics;
  tracker_.ExportMetrics(m);
  m->node_crashes += node_crashes_;
  m->lost_map_outputs += lost_map_outputs_;
  m->shuffle_fetch_retries += shuffle_fetch_retries_;
  m->disk_read_retries += disk_read_retries_;
  m->corruptions_detected += corruptions_detected_;
  m->corruptions_recovered += corruptions_recovered_;
  m->corruption_recovery_bytes += corruption_recovery_bytes_;
  m->checkpoints_restored += checkpoints_restored_;
  m->checkpoint_restore_bytes += checkpoint_restore_bytes_;
  m->checkpoint_corrupt_replicas += checkpoint_corrupt_replicas_;
  m->checkpoint_full_replays += checkpoint_full_replays_;
  m->checkpoint_segments_skipped += checkpoint_segments_skipped_;
  m->checkpoint_skipped_bytes += checkpoint_skipped_bytes_;
  m->shuffle_refetched_bytes += shuffle_refetched_bytes_;
  m->resident_hit_bytes += resident_hit_bytes_;
  m->resident_invalidated_segments += resident_invalidated_segments_;
  m->resident_invalidated_bytes += resident_invalidated_bytes_;
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

uint64_t Replayer::FetchRetryKey(int r, int m, uint32_t p) {
  return (static_cast<uint64_t>(r) << 40) ^
         (static_cast<uint64_t>(m) << 16) ^ static_cast<uint64_t>(p);
}

double Replayer::WithDiskRetries(double dur, const TraceOp& op, bool is_map,
                                 int task, int attempt, size_t idx) {
  if (op.resource != OpResource::kDisk || !op.is_read) return dur;
  const int fails = plan_.DiskReadFailures(is_map, task, attempt, idx);
  if (fails <= 0) return dur;
  disk_read_retries_ += static_cast<uint64_t>(fails);
  return dur * (1 + fails);
}

void Replayer::SubmitOp(const TraceOp& op, int node, double dur,
                        sim::Engine::Callback done) {
  if (op.resource == OpResource::kStall) {
    engine_->ScheduleAfterStream(dur, stream_, std::move(done));
    return;
  }
  pool_->Route(node, op)->Submit(dur, stream_, std::move(done));
}

void Replayer::SetActive(Activity a, int delta) {
  if (a == Activity::kNone) return;
  const int i = static_cast<int>(a);
  active_count_[i] += delta;
  active_[i].Add(engine_->now(), active_count_[i]);
}

void Replayer::ActInc(ReduceAttempt& at, Activity a) {
  if (a == Activity::kNone) return;
  ++at.act[static_cast<int>(a)];
  SetActive(a, +1);
}

void Replayer::ActDec(ReduceAttempt& at, Activity a) {
  if (a == Activity::kNone) return;
  --at.act[static_cast<int>(a)];
  SetActive(a, -1);
}

void Replayer::FlushActivity(ReduceAttempt& at) {
  // Clears a killed attempt's outstanding activity so in-flight op
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
  // Definition 1: 1/3 shuffle + 1/3 combine/reduce-fn + 1/3 output.
  double p = 0;
  if (totals_.shuffle_bytes > 0) {
    p += static_cast<double>(cum_shuffle_) /
         static_cast<double>(totals_.shuffle_bytes);
  }
  if (totals_.reduce_work > 0) {
    p += static_cast<double>(cum_work_) /
         static_cast<double>(totals_.reduce_work);
  }
  if (totals_.output_bytes > 0) {
    p += static_cast<double>(cum_output_) /
         static_cast<double>(totals_.output_bytes);
  }
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
  for (int n = 0; n < pool_->num_nodes(); ++n) {
    for (const PendingTask& p :
         pool_->TakeJobQueue(opts_.job_id, n, /*is_map=*/true)) {
      QueueEntryPopped(/*is_map=*/true, p);
    }
    for (const PendingTask& p :
         pool_->TakeJobQueue(opts_.job_id, n, /*is_map=*/false)) {
      QueueEntryPopped(/*is_map=*/false, p);
    }
  }
  for (size_t r = 0; r < reduces_.size(); ++r) {
    ReduceTaskState& st = reduce_states_[r];
    for (size_t a = 0; a < st.attempts.size(); ++a) {
      if (st.attempts[a].alive) {
        KillReduceAttempt(static_cast<int>(r), static_cast<int>(a));
      }
    }
  }
  for (size_t m = 0; m < maps_.size(); ++m) {
    MapTaskState& st = map_states_[m];
    for (size_t a = 0; a < st.attempts.size(); ++a) {
      if (st.attempts[a].alive) {
        KillMapAttempt(static_cast<int>(m), static_cast<int>(a));
      }
    }
  }
  NotifyDone(status_);
}

bool Replayer::JobComplete() const {
  return maps_completed_ == maps_.size() &&
         reduces_done_ == reduces_.size();
}

void Replayer::CheckCompletion() {
  if (completion_time_ < 0 && JobComplete()) {
    completion_time_ = engine_->now();
    end_time_ = completion_time_;
    NotifyDone(Status::OK());
  }
}

int Replayer::AliveMapAttempts(int m) const {
  int alive = 0;
  for (const MapAttempt& a : map_states_[static_cast<size_t>(m)].attempts) {
    if (a.alive) ++alive;
  }
  return alive;
}

int Replayer::AliveReduceAttempts(int r) const {
  int alive = 0;
  for (const ReduceAttempt& a :
       reduce_states_[static_cast<size_t>(r)].attempts) {
    if (a.alive) ++alive;
  }
  return alive;
}

bool Replayer::AllPushesIntact(int m) const {
  for (uint32_t p = 0; p < maps_[static_cast<size_t>(m)].num_pushes; ++p) {
    if (push_ready_[static_cast<size_t>(m)][p] < 0) return false;
  }
  return true;
}

bool Replayer::DepsReady(int m) const {
  for (int d : maps_[static_cast<size_t>(m)].deps) {
    if (!map_states_[static_cast<size_t>(d)].completed ||
        contrib_src_[static_cast<size_t>(d)] < 0) {
      return false;
    }
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
  if (is_map) {
    MapTaskState& st = map_states_[static_cast<size_t>(p.task)];
    (p.speculative ? st.spec_queued : st.queued) = false;
  } else {
    ReduceTaskState& st = reduce_states_[static_cast<size_t>(p.task)];
    (p.speculative ? st.spec_queued : st.queued) = false;
  }
}

bool Replayer::MapEntryRunnable(const PendingTask& p) const {
  const MapTaskState& st = map_states_[static_cast<size_t>(p.task)];
  if (!tracker_.CanStart(TaskKind::kMap, p.task)) return false;
  // A combine attempt (original or backup) reads its deps' node feeds; it
  // cannot start while any contribution is missing.
  if (!DepsReady(p.task)) return false;
  if (p.speculative) {
    return !st.completed && AliveMapAttempts(p.task) == 1;
  }
  if (AliveMapAttempts(p.task) > 0) return false;
  return !(st.completed && OutputIntact(p.task));
}

bool Replayer::ReduceEntryRunnable(const PendingTask& p) const {
  const ReduceTaskState& st = reduce_states_[static_cast<size_t>(p.task)];
  if (st.done) return false;
  if (!tracker_.CanStart(TaskKind::kReduce, p.task)) return false;
  if (p.speculative) return AliveReduceAttempts(p.task) == 1;
  return AliveReduceAttempts(p.task) == 0;
}

void Replayer::PoolStartMap(int task, int node, bool speculative) {
  StartMapAttempt(task, node, speculative);
}

void Replayer::PoolStartReduce(int task, int node, bool speculative) {
  StartReduceAttempt(task, node, speculative);
}

bool Replayer::PreemptMapOn(int node) {
  // Victim: the latest-started alive map attempt on `node` (least sunk
  // work) whose task is still under the preempt cap. Ties (same start
  // time): lowest task index — any fixed rule keeps replays identical.
  int bm = -1;
  int ba = -1;
  double best_start = 0;
  for (size_t m = 0; m < maps_.size(); ++m) {
    if (preempt_count_[m] >= opts_.max_preemptions_per_task) continue;
    const auto& atts = map_states_[m].attempts;
    for (size_t a = 0; a < atts.size(); ++a) {
      if (!atts[a].alive || atts[a].node != node) continue;
      if (bm < 0 || atts[a].start > best_start) {
        bm = static_cast<int>(m);
        ba = static_cast<int>(a);
        best_start = atts[a].start;
      }
    }
  }
  if (bm < 0) return false;
  ++preempt_count_[static_cast<size_t>(bm)];
  MapAttempt& at = map_states_[static_cast<size_t>(bm)].attempts
                       [static_cast<size_t>(ba)];
  at.alive = false;
  SetActive(Activity::kMap, -1);
  tracker_.Preempted(TaskKind::kMap, bm, ba, engine_->now());
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
  if (st.queued || AliveMapAttempts(m) > 0) return;
  if (st.completed && OutputIntact(m)) return;
  if (!DepsReady(m)) {
    // Generalized lost-output rule (DESIGN.md §5.10): a combined push is
    // the output of every contributing map task, so re-materializing it
    // first re-runs any dep whose node-feed contribution died with its
    // node. The last dep's MapDone re-triggers this combine.
    for (int d : maps_[static_cast<size_t>(m)].deps) {
      if (!map_states_[static_cast<size_t>(d)].completed ||
          contrib_src_[static_cast<size_t>(d)] < 0) {
        ScheduleMapRun(d);
        if (failed_) return;
      }
    }
    return;
  }
  if (!tracker_.CanStart(TaskKind::kMap, m)) {
    Fail(Status::ResourceExhausted("map task " + std::to_string(m) +
                                   " exceeded max_attempts"));
    return;
  }
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
  if (st.done || st.queued || AliveReduceAttempts(r) > 0) return;
  if (!tracker_.CanStart(TaskKind::kReduce, r)) {
    Fail(Status::ResourceExhausted("reduce task " + std::to_string(r) +
                                   " exceeded max_attempts"));
    return;
  }
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

void Replayer::MaybeSpeculate(TaskKind kind) {
  // After each task completion: once enough tasks of this kind finished,
  // give any task whose single running attempt lags the median a backup
  // attempt on another node. First finisher wins.
  if (failed_ || !config_.faults.speculative_execution) return;
  const size_t total =
      kind == TaskKind::kMap ? maps_.size() : reduces_.size();
  if (total == 0) return;
  const double done = static_cast<double>(tracker_.successes(kind));
  if (done < config_.faults.speculation_min_done_fraction *
                 static_cast<double>(total)) {
    return;
  }
  const double median = tracker_.MedianSuccessDuration(kind);
  if (median <= 0) return;
  const double threshold = config_.faults.speculation_slowness * median;
  for (int t = 0; t < static_cast<int>(total); ++t) {
    if (kind == TaskKind::kMap
            ? map_states_[static_cast<size_t>(t)].completed
            : reduce_states_[static_cast<size_t>(t)].done) {
      continue;
    }
    if (!tracker_.CanStart(kind, t)) continue;
    int running = -1;
    int alive = 0;
    double start = 0;
    int node = -1;
    if (kind == TaskKind::kMap) {
      const MapTaskState& st = map_states_[static_cast<size_t>(t)];
      if (st.queued || st.spec_queued) continue;
      for (size_t a = 0; a < st.attempts.size(); ++a) {
        if (st.attempts[a].alive) {
          running = static_cast<int>(a);
          start = st.attempts[a].start;
          node = st.attempts[a].node;
          ++alive;
        }
      }
    } else {
      const ReduceTaskState& st = reduce_states_[static_cast<size_t>(t)];
      if (st.queued || st.spec_queued) continue;
      for (size_t a = 0; a < st.attempts.size(); ++a) {
        if (st.attempts[a].alive) {
          running = static_cast<int>(a);
          start = st.attempts[a].start;
          node = st.attempts[a].node;
          ++alive;
        }
      }
    }
    if (alive != 1 || running < 0) continue;
    if (engine_->now() - start <= threshold) continue;
    const int backup = kind == TaskKind::kMap ? PickMapNode(t, node)
                                              : PickReduceNode(node);
    if (backup < 0) continue;  // nowhere to run a backup
    if (kind == TaskKind::kMap) {
      map_states_[static_cast<size_t>(t)].spec_queued = true;
      pool_->EnqueueMap(opts_.job_id, backup, {t, true});
    } else {
      reduce_states_[static_cast<size_t>(t)].spec_queued = true;
      pool_->EnqueueReduce(opts_.job_id, backup, {t, true});
    }
    if (failed_) return;
  }
}

void Replayer::ScheduleSpeculationTick() {
  // Completions trigger speculation scans, but a lagging tail with nothing
  // finishing would never be rescanned — poll too, like Hadoop's
  // speculator thread.
  engine_->ScheduleAfterStream(
      config_.faults.speculation_check_s, stream_, [this]() {
        if (failed_ || JobComplete()) return;
        MaybeSpeculate(TaskKind::kMap);
        MaybeSpeculate(TaskKind::kReduce);
        if (!failed_ && !JobComplete()) ScheduleSpeculationTick();
      });
}

// ---- checkpoint restore (DESIGN.md §5.6) ----

void Replayer::RunRestoreOp(int r, int a, size_t i) {
  if (failed_) return;
  const ReduceAttempt& at = reduce_states_[static_cast<size_t>(r)]
                                .attempts[static_cast<size_t>(a)];
  if (!at.alive) return;
  if (i >= at.restore.ops.size()) {
    StartFetch(r, a);
    TryConsume(r, a);
    return;
  }
  const TraceOp& op = at.restore.ops[i];
  SubmitOp(op, at.node, Duration(op, at.node),
           [this, r, a, i]() { RunRestoreOp(r, a, i + 1); });
}

// ---- crash handling ----

void Replayer::KillMapAttempt(int m, int a) {
  MapAttempt& at = map_states_[static_cast<size_t>(m)]
                       .attempts[static_cast<size_t>(a)];
  at.alive = false;
  SetActive(Activity::kMap, -1);
  tracker_.Killed(TaskKind::kMap, m, a, engine_->now());
  pool_->ReleaseSlot(opts_.job_id, at.node, /*is_map=*/true);
}

void Replayer::KillReduceAttempt(int r, int a) {
  ReduceAttempt& at = reduce_states_[static_cast<size_t>(r)]
                          .attempts[static_cast<size_t>(a)];
  at.alive = false;
  FlushActivity(at);
  tracker_.Killed(TaskKind::kReduce, r, a, engine_->now());
  pool_->ReleaseSlot(opts_.job_id, at.node, /*is_map=*/false);
}

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
      if (AliveReduceAttempts(static_cast<int>(r)) == 0) {
        if (!watermark_known) {
          watermark = ladder_.Watermark(static_cast<int>(r));
          watermark_known = true;
        }
        if (s >= watermark) return true;
        continue;
      }
      for (const ReduceAttempt& at : st.attempts) {
        if (at.alive && !at.fetched[s]) return true;
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
  ++node_crashes_;
  // Checkpoint replicas stored on n are gone. Pruning before the kill /
  // reschedule scans below means every restore-watermark query already
  // sees the post-crash replica view.
  ladder_.NodeDied(n);
  // Unstarted tasks this job queued here go back through the scheduler.
  for (const PendingTask& p :
       pool_->TakeJobQueue(opts_.job_id, n, /*is_map=*/true)) {
    QueueEntryPopped(/*is_map=*/true, p);
  }
  for (const PendingTask& p :
       pool_->TakeJobQueue(opts_.job_id, n, /*is_map=*/false)) {
    QueueEntryPopped(/*is_map=*/false, p);
  }
  // Kill running attempts; reduces first so their fetched state is
  // settled before the lost-output scan asks who still needs what.
  for (size_t r = 0; r < reduces_.size(); ++r) {
    ReduceTaskState& st = reduce_states_[r];
    for (size_t a = 0; a < st.attempts.size(); ++a) {
      if (st.attempts[a].alive && st.attempts[a].node == n) {
        KillReduceAttempt(static_cast<int>(r), static_cast<int>(a));
      }
    }
  }
  for (size_t m = 0; m < maps_.size(); ++m) {
    MapTaskState& st = map_states_[m];
    for (size_t a = 0; a < st.attempts.size(); ++a) {
      if (st.attempts[a].alive && st.attempts[a].node == n) {
        KillMapAttempt(static_cast<int>(m), static_cast<int>(a));
      }
    }
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
        if (at.alive && !dead_[static_cast<size_t>(at.node)] &&
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
        if (!maps_[m].resident.empty() && maps_[m].resident[p]) {
          ++resident_invalidated_segments_;
          resident_invalidated_bytes_ +=
              p < maps_[m].push_bytes.size() ? maps_[m].push_bytes[p] : 0;
        }
      }
    }
    if (lost_any && OutputNeeded(static_cast<int>(m))) {
      ScheduleMapRun(static_cast<int>(m));
      if (failed_) return;
    }
  }
  // Node-feed contributions held on n are gone (node combine tier): any
  // running combine attempt that was consuming one dies with its input.
  // The restart scan below re-runs what is still needed — a killed or
  // push-lost combine reschedules through ScheduleMapRun, which first
  // re-materializes the missing contributions (generalized lineage).
  for (size_t m = 0; m < maps_.size(); ++m) {
    if (contrib_src_[m] != n) continue;
    contrib_src_[m] = -1;
    for (int c : dependents_[m]) {
      MapTaskState& cs = map_states_[static_cast<size_t>(c)];
      for (size_t a = 0; a < cs.attempts.size(); ++a) {
        if (cs.attempts[a].alive) KillMapAttempt(c, static_cast<int>(a));
      }
    }
  }
  // Restart whatever the crash left without a running or queued
  // execution.
  for (size_t r = 0; r < reduces_.size(); ++r) {
    const ReduceTaskState& st = reduce_states_[r];
    if (!st.done && !st.queued &&
        AliveReduceAttempts(static_cast<int>(r)) == 0) {
      ScheduleReduceRun(static_cast<int>(r));
      if (failed_) return;
    }
  }
  for (size_t m = 0; m < maps_.size(); ++m) {
    const MapTaskState& st = map_states_[m];
    if (st.queued || AliveMapAttempts(static_cast<int>(m)) > 0) continue;
    if (!st.completed) {
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
          0, stream_,
          [this, n = fraction_crashes_[i].node]() { CrashNode(n); });
    }
  }
}

// ---- map side ----

void Replayer::StartMapAttempt(int m, int node, bool speculative) {
  MapTaskState& st = map_states_[static_cast<size_t>(m)];
  // A completed map only re-runs because its output was lost.
  if (st.completed && !speculative) ++lost_map_outputs_;
  const int a = tracker_.StartAttempt(TaskKind::kMap, m, node, speculative,
                                      engine_->now());
  CHECK_EQ(static_cast<size_t>(a), st.attempts.size());
  MapAttempt at;
  at.node = node;
  at.start = engine_->now();
  at.alive = true;
  st.attempts.push_back(at);
  SetActive(Activity::kMap, +1);
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
    if (failed_) return;
    MapAttempt& att = map_states_[static_cast<size_t>(m)]
                          .attempts[static_cast<size_t>(a)];
    if (!att.alive) return;  // killed mid-op; activity already flushed
    const TraceOp& done_op = maps_[static_cast<size_t>(m)].trace->ops[idx];
    tracker_.AddWork(
        TaskKind::kMap, m, a,
        done_op.resource == OpResource::kCpu ? done_op.cpu_s : 0,
        done_op.resource == OpResource::kCpu ? 0 : done_op.bytes);
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
  MapTaskState& st = map_states_[static_cast<size_t>(m)];
  const int node = st.attempts[static_cast<size_t>(a)].node;
  st.attempts[static_cast<size_t>(a)].alive = false;
  SetActive(Activity::kMap, -1);
  tracker_.Succeeded(TaskKind::kMap, m, a, engine_->now());
  // First finisher wins: the backup race is over, losers' partial
  // outputs are superseded by the winner's complete set.
  for (size_t o = 0; o < st.attempts.size(); ++o) {
    if (st.attempts[o].alive) {
      KillMapAttempt(m, static_cast<int>(o));
    }
  }
  for (uint32_t p = 0; p < maps_[static_cast<size_t>(m)].num_pushes; ++p) {
    if (push_ready_[static_cast<size_t>(m)][p] < 0) {
      PushReady(m, p, node);
    } else {
      push_src_[static_cast<size_t>(m)][p] = node;
    }
  }
  const bool first = !st.completed;
  st.completed = true;
  if (first) {
    ++maps_completed_;
    map_winner_[static_cast<size_t>(m)] = node;
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
  MaybeSpeculate(TaskKind::kMap);
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
            .attempts[static_cast<size_t>(a)].alive) {
      StartFetch(r, a);
    }
  }
}

// ---- reduce side ----

void Replayer::StartReduceAttempt(int r, int node, bool speculative) {
  ReduceTaskState& st = reduce_states_[static_cast<size_t>(r)];
  const int a = tracker_.StartAttempt(TaskKind::kReduce, r, node,
                                      speculative, engine_->now());
  CHECK_EQ(static_cast<size_t>(a), st.attempts.size());
  ReduceAttempt at;
  at.node = node;
  at.start = engine_->now();
  at.alive = true;
  at.fetched.assign(reduces_[static_cast<size_t>(r)].deliveries.size(),
                    false);
  at.fetch_tries.assign(reduces_[static_cast<size_t>(r)].deliveries.size(),
                        0);
  at.verify_tries.assign(
      reduces_[static_cast<size_t>(r)].deliveries.size(), 0);
  // A later attempt resumes from the newest verifiable checkpoint
  // replica instead of replaying the whole shuffle (DESIGN.md §5.6):
  // deliveries below the watermark count as fetched and consumed, and
  // the restore reads (corrupt candidates included) are charged before
  // the fetch/consume streams start.
  const CheckpointLadder::Choice choice = ladder_.Choose(r);
  if (choice.node >= 0) {
    for (uint32_t s = 0; s < choice.watermark; ++s) {
      at.fetched[s] = true;
      ++checkpoint_segments_skipped_;
      checkpoint_skipped_bytes_ +=
          reduces_[static_cast<size_t>(r)].deliveries[s].bytes;
    }
    at.fetch_section = choice.watermark;
    at.consume_section = choice.watermark;
    ++checkpoints_restored_;
    checkpoint_corrupt_replicas_ +=
        static_cast<uint64_t>(choice.tried.size());
    at.restore = ladder_.RestoreChain(r, choice, node);
    for (const TraceOp& op : at.restore.ops) {
      checkpoint_restore_bytes_ += op.bytes;
    }
    st.attempts.push_back(std::move(at));
    RunRestoreOp(r, a, 0);
    return;
  }
  if (choice.had_durable) ++checkpoint_full_replays_;
  st.attempts.push_back(std::move(at));
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
  if (!at.alive) return;
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
  // resident push is exempt: the segment cache pins it in the holder's
  // memory for the whole job, so there is no retention window to miss.
  const bool resident_push =
      !maps_[static_cast<size_t>(d.map_task)].resident.empty() &&
      maps_[static_cast<size_t>(d.map_task)].resident[d.push];
  if (d.bytes > 0 && !resident_push &&
      at.start > ready + config_.costs.map_output_retention_s) {
    shuffle_from_disk_bytes_ += d.bytes;
    TraceOp read;
    read.resource = OpResource::kDisk;
    read.tag = OpTag::kShuffle;
    read.bytes = d.bytes;
    read.is_read = true;
    const int src_node = push_src_[static_cast<size_t>(d.map_task)][d.push];
    ActInc(at, Activity::kShuffle);
    pool_->Route(src_node, read)
        ->Submit(Duration(read, src_node), stream_, [this, r, a, s]() {
          if (failed_) return;
          ReduceAttempt& att = reduce_states_[static_cast<size_t>(r)]
                                   .attempts[static_cast<size_t>(a)];
          if (!att.alive) return;
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
  pool_->Route(at.node, net_op)
      ->Submit(Duration(net_op, at.node), stream_, [this, r, a, s]() {
        if (failed_) return;
        ReduceAttempt& att = reduce_states_[static_cast<size_t>(r)]
                                 .attempts[static_cast<size_t>(a)];
        if (!att.alive) return;
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
          ++shuffle_fetch_retries_;
          const double backoff = config_.faults.fetch_retry.BackoffFor(
              try_i, FetchRetryKey(r, d.map_task, d.push));
          engine_->ScheduleAfterStream(backoff, stream_, [this, r, a, s]() {
            if (failed_) return;
            ReduceAttempt& att2 = reduce_states_[static_cast<size_t>(r)]
                                      .attempts[static_cast<size_t>(a)];
            if (!att2.alive) return;
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
          ++corruptions_detected_;
          ++corruptions_recovered_;
          corruption_recovery_bytes_ += d.bytes;
          FetchOverNet(r, a, s);
          return;
        }
        // Corrupt stored map output: re-fetching cannot help (every copy
        // served fails verification), so only re-executing the producing
        // map task rematerializes a good push. Mark this push
        // unpublished and park until the re-run republishes it.
        const int bad_gens = plan_.MapOutputCorruptions(d.map_task, d.push);
        if (push_gen_[static_cast<size_t>(d.map_task)][d.push] < bad_gens) {
          const int gen = push_gen_[static_cast<size_t>(d.map_task)][d.push];
          ++corruptions_detected_;
          const sim::RetryPolicy& retry = config_.faults.corruption_retry;
          if (gen >= retry.max_retries) {
            Fail(Status::Corruption(
                "map task " + std::to_string(d.map_task) + " push " +
                std::to_string(d.push) + ": output corrupt beyond " +
                std::to_string(retry.max_retries) + " re-executions"));
            return;
          }
          ++push_gen_[static_cast<size_t>(d.map_task)][d.push];
          ++corruptions_recovered_;
          corruption_recovery_bytes_ += d.bytes;
          push_ready_[static_cast<size_t>(d.map_task)][d.push] = -1.0;
          push_src_[static_cast<size_t>(d.map_task)][d.push] = -1;
          ScheduleMapRun(d.map_task);
          if (failed_) return;
          StartFetch(r, a);
          return;
        }
        const size_t idx = t.trace->section_starts[s];
        const TraceOp& done_op = t.trace->ops[idx];
        tracker_.AddWork(TaskKind::kReduce, r, a, 0, done_op.bytes);
        ApplyDeltasOnce(reduce_delta_applied_[static_cast<size_t>(r)], idx,
                        done_op);
        // Attempt 0's fetches are first-time shuffle work; anything a
        // later (restarted or speculative) attempt pulls is recovery
        // re-fetch traffic.
        if (a > 0) shuffle_refetched_bytes_ += d.bytes;
        if (!maps_[static_cast<size_t>(d.map_task)].resident.empty() &&
            maps_[static_cast<size_t>(d.map_task)].resident[d.push]) {
          resident_hit_bytes_ += d.bytes;
        }
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
  if (!at.alive) return;
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
    if (failed_) return;
    ReduceAttempt& att = reduce_states_[static_cast<size_t>(r)]
                             .attempts[static_cast<size_t>(a)];
    if (!att.alive) return;
    ActDec(att, act);
    const TraceOp& done_op =
        reduces_[static_cast<size_t>(r)].trace->ops[idx];
    tracker_.AddWork(
        TaskKind::kReduce, r, a,
        done_op.resource == OpResource::kCpu ? done_op.cpu_s : 0,
        done_op.resource == OpResource::kCpu ? 0 : done_op.bytes);
    ApplyDeltasOnce(reduce_delta_applied_[static_cast<size_t>(r)], idx,
                    done_op);
    ladder_.OpDone(r, static_cast<uint32_t>(idx), att.node);
    TryConsume(r, a);
  });
}

void Replayer::ReduceDone(int r, int a) {
  ReduceTaskState& st = reduce_states_[static_cast<size_t>(r)];
  const int node = st.attempts[static_cast<size_t>(a)].node;
  st.attempts[static_cast<size_t>(a)].alive = false;
  tracker_.Succeeded(TaskKind::kReduce, r, a, engine_->now());
  for (size_t o = 0; o < st.attempts.size(); ++o) {
    if (st.attempts[o].alive) {
      KillReduceAttempt(r, static_cast<int>(o));
    }
  }
  const bool first = !st.done;
  st.done = true;
  if (first) {
    ++reduces_done_;
    reduce_winner_[static_cast<size_t>(r)] = node;
  }
  pool_->ReleaseSlot(opts_.job_id, node, /*is_map=*/false);
  MaybeSpeculate(TaskKind::kReduce);
  CheckCompletion();
}

}  // namespace onepass
