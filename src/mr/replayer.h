// Replayer: replays one job's map (and optionally reduce) cost traces on a
// shared simulated cluster (SlotPool), under that job's FaultPlan.
//
// Fault tolerance lives entirely in this time plane: tasks are
// deterministic, so re-executing one after a crash replays the *same* cost
// trace on another node — the data-plane result is unchanged, only when and
// where the work happens moves. Each execution of a task is an attempt,
// recorded once, in its task's attempt vector: where and when it ran, how
// it ended, and the work it did (charged as waste if it was killed or
// preempted). Maps and reduces share one attempt lifecycle — start within
// the budget, end exactly once, first finisher wins. A fail-stop node
// crash kills the node's running attempts, loses the map outputs it
// stored, and triggers:
//   * re-execution of unfinished tasks on surviving nodes (maps only on
//     surviving replica holders of their input chunk);
//   * the lost-map-output rule: a *completed* map whose outputs some
//     unfinished reducer has not yet fetched is re-executed too;
//   * shuffle fetches that lose their source mid-transfer park until the
//     map's re-execution republishes the push.
// Transient faults (disk-read errors, shuffle-fetch failures) retry with
// exponential backoff; stragglers dilate op durations; speculative backups
// race the original attempt and the first finisher wins (thresholds in
// replayer.cc; DESIGN.md §5.1). A task that exhausts max_attempts (or
// loses every replica of its input) fails the job with a non-OK Status
// instead of stalling. A restarted reduce attempt resumes from the
// checkpoint its CheckpointLadder picks (DESIGN.md §5.6).
//
// Multi-job operation (DESIGN.md §5.7): several Replayers share one
// sim::Engine and one SlotPool. Faults are a per-job domain — this job's
// crashed node is dead *for this job only*; the pool keeps scheduling
// other jobs there. Every event the Replayer creates carries its options'
// stream tag, so cross-job simultaneous events order by (time, job
// stream, seq) and the whole multi-job replay is deterministic. A solo
// Replayer with stream 0 on a fresh engine reproduces the historical
// single-job schedule byte for byte.

#ifndef ONEPASS_MR_REPLAYER_H_
#define ONEPASS_MR_REPLAYER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/mr/checkpoint_ladder.h"
#include "src/mr/config.h"
#include "src/mr/cost_trace.h"
#include "src/mr/metrics.h"
#include "src/mr/slot_pool.h"
#include "src/sim/event_queue.h"
#include "src/sim/fault_injector.h"
#include "src/sim/timeline.h"

namespace onepass {

struct JobResult;

// One shuffle segment a reduce task consumes: map `map_task`'s push
// `push`, of which this reducer's partition share is `bytes`.
struct DeliveryRef {
  int map_task = 0;
  uint32_t push = 0;
  uint64_t bytes = 0;
};

class Replayer {
 public:
  struct MapTaskIn {
    int node = 0;  // primary replica (initial, data-local placement)
    std::vector<int> replicas;  // all nodes holding the input chunk
    const CostTrace* trace = nullptr;
    // gate op index -> push index, for push-ready bookkeeping.
    std::map<uint32_t, uint32_t> gates;
    uint32_t num_pushes = 0;
    // Total bytes per push (all parts), filled by PrepareJob's resident
    // transform (DESIGN.md §5.9) to size cache invalidations. Empty under
    // kDisk.
    std::vector<uint64_t> push_bytes;
    // Node combine tier (DESIGN.md §5.10): a virtual combine task lists
    // the co-located map tasks whose node feeds it merges. It is not
    // queued in the initial wave (the pool drops popped non-runnable
    // entries); the last dep's MapDone schedules it. Its combined push is
    // lineage of every dep: losing a dep's node-feed contribution to a
    // crash re-runs that dep before the combine can (re-)execute.
    std::vector<int> deps;
  };
  struct ReduceTaskIn {
    int node = 0;
    const CostTrace* trace = nullptr;
    std::vector<DeliveryRef> deliveries;
    std::vector<CheckpointMark> checkpoints;
  };
  struct Totals {
    uint64_t shuffle_bytes = 0;
    uint64_t reduce_work = 0;
    uint64_t output_bytes = 0;
  };
  struct Options {
    int job_id = 0;
    int tenant = 0;
    // Event-stream tag for everything this job schedules (0 = solo /
    // legacy order; the JobManager uses job_id + 1).
    uint64_t stream = 0;
  };

  // `config`, `plan`, and the traces referenced by `maps` / `reduces`
  // must outlive the Replayer. The pool and engine are shared with other
  // jobs; RegisterJob happens in Start().
  Replayer(sim::Engine* engine, SlotPool* pool, const JobConfig& config,
           const sim::FaultPlan& plan, std::vector<MapTaskIn> maps,
           std::vector<ReduceTaskIn> reduces, Totals totals)
      : Replayer(engine, pool, config, plan, std::move(maps),
                 std::move(reduces), totals, Options()) {}
  Replayer(sim::Engine* engine, SlotPool* pool, const JobConfig& config,
           const sim::FaultPlan& plan, std::vector<MapTaskIn> maps,
           std::vector<ReduceTaskIn> reduces, Totals totals,
           Options options);

  // Enqueues the initial data-local wave, schedules this job's crash
  // events (relative to the current simulated time), and pumps the pool.
  // `on_done` (may be null) fires exactly once, at completion or failure,
  // from inside the event that finished the job.
  void Start(std::function<void(const Status&)> on_done = nullptr);

  // Solo convenience: Start + drain the engine. Returns the job's status;
  // a drained engine with an incomplete job reports the stall as an
  // Internal error.
  Status Run();

  // --- results ---
  double push_ready_time(int m, uint32_t p) const {
    return push_ready_[static_cast<size_t>(m)][p];
  }
  // Placement capture for resident chains: the node whose attempt won each
  // task (first finisher under speculation/recovery), or -1 if the job did
  // not complete that task.
  int map_winner_node(int m) const { return WinnerNode(/*is_map=*/true, m); }
  int reduce_winner_node(int r) const {
    return WinnerNode(/*is_map=*/false, r);
  }

  // Completes `result` from this finished full replay: running_time and
  // map_finish_time measured from the replay's start (a solo replay
  // starts at 0), shuffle_from_disk_bytes, the progress and activity
  // series, and the attempt/recovery counters folded into its metrics.
  // Not utilization — that is cluster state, exported by
  // SlotPool::ExportUtilization.
  void ExportResult(JobResult* result) const;

  // --- SlotPool-facing scheduling surface ---

  // May the pool grant this job a slot on `node`? False once the job
  // failed or `node` crashed in this job's fault domain.
  bool SchedulableOn(int node) const {
    return !failed_ && dead_[static_cast<size_t>(node)] == 0;
  }
  // The pool dequeued `p`; clear its queued/spec_queued flag.
  void QueueEntryPopped(bool is_map, const PendingTask& p);
  // May the dequeued entry `p` start an attempt now?
  bool EntryRunnable(bool is_map, const PendingTask& p) const;
  // The pool granted a slot on `node`; start the attempt.
  void StartMapAttempt(int m, int node, bool speculative);
  void StartReduceAttempt(int r, int node, bool speculative);
  // Evicts one running map attempt on `node` (latest-started first,
  // preempt-cap permitting): the attempt dies budget-exempt, its slot is
  // released (which re-pumps the node), and the task requeues through the
  // normal scheduler. Returns false when no attempt is evictable.
  bool PreemptMapOn(int node);

 private:
  enum class Activity { kMap, kShuffle, kMerge, kReduce, kNone };
  static Activity Categorize(bool is_map_task, OpTag tag);

  // How an attempt ended; kRunning until it does.
  enum class AttemptState : uint8_t { kRunning, kSucceeded, kKilled,
                                      kPreempted };

  // One execution of a task: the original run, a crash-triggered
  // re-execution, or a speculative backup. Ended attempts stay in their
  // task's vector; their in-flight op completions early-return.
  struct Attempt {
    int node = 0;
    double start = 0;
    bool speculative = false;
    AttemptState state = AttemptState::kRunning;
    // Work completed so far, charged to waste if the attempt is killed or
    // preempted: CPU seconds, and disk + network payload bytes.
    double cpu_s = 0;
    uint64_t io_bytes = 0;
    int act[4] = {0, 0, 0, 0};  // outstanding activity counts, by Activity

    bool alive() const { return state == AttemptState::kRunning; }
    void Charge(const TraceOp& op) {
      if (op.resource == OpResource::kCpu) {
        cpu_s += op.cpu_s;
      } else {
        io_bytes += op.bytes;
      }
    }
  };
  struct MapAttempt : Attempt {
    size_t op_idx = 0;  // next trace op
  };
  // A reduce attempt runs two concurrent streams, like Hadoop's copier
  // threads vs its merge thread: the *fetch* stream pulls deliveries as
  // soon as their producing map publishes them (network + possible disk
  // re-read), while the *consume* stream executes the engine's
  // per-delivery work strictly in order, gated on the fetch of its
  // section.
  struct ReduceAttempt : Attempt {
    uint32_t fetch_section = 0;    // next delivery to fetch
    uint32_t consume_section = 0;  // next section to consume
    size_t op_idx = 0;             // current op within consume_section
    bool in_section = false;       // op_idx initialized for this section
    bool consume_blocked = false;  // waiting for a fetch to complete
    std::vector<bool> fetched;
    std::vector<uint8_t> fetch_tries;   // failed tries per section
    std::vector<uint8_t> verify_tries;  // checksum-failed fetches per section
    // A restored attempt's checkpoint restore chain (CheckpointLadder::
    // RestoreChain), run before its fetch and consume streams start.
    CostTrace restore;
  };
  template <typename A>
  struct TaskState {
    std::vector<A> attempts;
    bool done = false;         // at least one attempt succeeded
    bool queued = false;       // a non-speculative PendingTask entry exists
    bool spec_queued = false;  // a speculative PendingTask entry exists

    int Count(AttemptState s) const {
      int n = 0;
      for (const A& at : attempts) n += at.state == s ? 1 : 0;
      return n;
    }
    int alive() const { return Count(AttemptState::kRunning); }
    // Attempts charged to the budget. Preempted ones are exempt: the
    // arbiter evicted them through no fault of the task, so they never
    // push it toward the ResourceExhausted failure the budget forces.
    int budgeted() const {
      return static_cast<int>(attempts.size()) -
             Count(AttemptState::kPreempted);
    }
  };
  using MapTaskState = TaskState<MapAttempt>;
  using ReduceTaskState = TaskState<ReduceAttempt>;

  // Calls f with task t's state, a MapTaskState or a ReduceTaskState, so
  // one piece of lifecycle code serves both kinds.
  template <typename F>
  decltype(auto) OnTask(bool is_map, int t, F&& f) {
    return is_map ? f(map_states_[static_cast<size_t>(t)])
                  : f(reduce_states_[static_cast<size_t>(t)]);
  }
  template <typename F>
  decltype(auto) OnTask(bool is_map, int t, F&& f) const {
    return is_map ? f(map_states_[static_cast<size_t>(t)])
                  : f(reduce_states_[static_cast<size_t>(t)]);
  }
  Attempt& AttemptOf(bool is_map, int t, int a);

  double Duration(const TraceOp& op, int node) const;
  static uint64_t FetchRetryKey(int r, int m, uint32_t p);
  double WithDiskRetries(double dur, const TraceOp& op, bool is_map,
                         int task, int attempt, size_t idx);
  // Submits `op` for attempt-completion callback `done`: a timer for
  // kStall ops (a pure wait occupies no server), a server job otherwise.
  void SubmitOp(const TraceOp& op, int node, double dur,
                sim::Engine::Callback done);

  void SetActive(Activity a, int delta);
  void ActInc(Attempt& at, Activity a);
  void ActDec(Attempt& at, Activity a);
  void FlushActivity(Attempt& at);

  void ApplyDeltasOnce(std::vector<bool>& applied, size_t idx,
                       const TraceOp& op);
  void ApplyDeltas(const TraceOp& op);
  void RecordReduceProgress();

  void Fail(Status s);
  bool JobComplete() const;
  // Some op or timer of this job is in flight, or (sharing the pool) some
  // task has a queued entry. Otherwise the job has stalled: its running
  // attempts are parked on pushes that nothing will republish.
  bool CanProgress() const;
  void CheckCompletion();
  void NotifyDone(const Status& s);

  // --- the attempt lifecycle, shared by both kinds ---

  // The attempt budget: fewer than max_attempts started, preempted
  // attempts exempt.
  bool CanStart(bool is_map, int t) const;
  // CanStart, or else fails the job with ResourceExhausted.
  bool CheckBudget(bool is_map, int t);
  // Appends a running attempt to `st` and counts it; returns its index.
  template <typename A>
  int NewAttempt(bool is_map, TaskState<A>& st, int node, bool speculative);
  // Ends a running attempt. Kills and preemptions charge its work to
  // waste; a success records its duration (the speculation baseline) and
  // any speculative win.
  void EndAttempt(bool is_map, Attempt& at, AttemptState how);
  void KillAttempt(bool is_map, int t, int a);
  // Kills task t's running attempts on `node` (-1: on every node).
  void KillRunning(bool is_map, int t, int node);
  // Kills every running attempt on `node` (-1: on every node), reduces
  // first.
  void KillAttemptsOn(int node);
  // Ends attempt a as task t's success and kills its other running
  // attempts: first finisher wins. Returns the winner's node.
  int WinAttempt(bool is_map, int t, int a);
  // Node of task t's first successful attempt, or -1.
  int WinnerNode(bool is_map, int t) const;
  // Takes this job's queued entries on `node` back out of the pool.
  void DropQueuedOn(int node);

  bool AllPushesIntact(int m) const;
  // Dep d completed and its node-feed contribution is intact.
  bool ContributionReady(int d) const;
  // All of m's deps are ContributionReady (trivially true for ordinary
  // maps). A combine task may only start — initially, after a crash, or
  // speculatively — while this holds.
  bool DepsReady(int m) const;
  // Pushes intact and, for a combine contributor, its contribution too: a
  // completed task re-runs when either is lost and still needed.
  bool OutputIntact(int m) const;

  int PickMapNode(int m, int exclude) const;
  int PickReduceNode(int exclude) const;
  void ScheduleMapRun(int m);
  void ScheduleReduceRun(int r);

  void MaybeSpeculate(bool is_map);
  void ScheduleSpeculationTick();

  // Runs op i of attempt a's restore chain; past the end, starts the
  // attempt's fetch and consume streams.
  void RunRestoreOp(int r, int a, size_t i);

  bool OutputNeeded(int m) const;
  void CrashNode(int n);
  void FireFractionCrashes();
  void FireReduceFractionCrashes();

  void RunNextMapOp(int m, int a);
  void MapDone(int m, int a);
  void PushReady(int m, uint32_t p, int src);

  void StartFetch(int r, int a);
  void FetchOverNet(int r, int a, uint32_t s);
  void TryConsume(int r, int a);
  void ReduceDone(int r, int a);

  const JobConfig& config_;
  const sim::FaultPlan& plan_;
  std::vector<MapTaskIn> maps_;
  std::vector<ReduceTaskIn> reduces_;
  Totals totals_;
  Options opts_;
  // Resident shuffle (DESIGN.md §5.9): every push stays in its producer's
  // memory for the whole job, so a fetch never pays the retention-window
  // re-read, and losing a push's node counts as a cache invalidation.
  const bool resident_;

  sim::Engine* engine_;
  SlotPool* pool_;
  double start_time_ = 0;
  std::function<void(const Status&)> on_done_;
  bool registered_ = false;

  std::vector<char> dead_;  // per-job fault domain
  std::vector<MapTaskState> map_states_;
  std::vector<ReduceTaskState> reduce_states_;
  std::vector<double> success_s_[2];  // success durations: maps, reduces
  std::vector<std::vector<double>> push_ready_;
  std::vector<std::vector<int>> push_src_;   // node holding each push
  // Map-output corruption generation consumed so far, per push: the plan's
  // CorruptionChain says how many generations of a push materialize
  // corrupt; each detected one forces a map re-execution that advances
  // this counter.
  std::vector<std::vector<int>> push_gen_;
  std::vector<std::vector<uint32_t>> gate_of_;  // push -> gate op index
  // Node combine tier: node holding task m's node-feed contribution (-1 =
  // not produced or lost with its node), and the reverse dep index —
  // which combine tasks consume m's contribution.
  std::vector<int> contrib_src_;
  std::vector<std::vector<int>> dependents_;
  // Waiting fetch streams, keyed by (map task, push): (reduce, attempt).
  std::map<std::pair<int, uint32_t>, std::vector<std::pair<int, int>>>
      push_waiters_;
  std::vector<std::vector<bool>> map_delta_applied_;
  std::vector<std::vector<bool>> reduce_delta_applied_;
  CheckpointLadder ladder_;
  std::vector<sim::CrashEvent> fraction_crashes_;
  std::vector<bool> fraction_fired_;

  size_t maps_completed_ = 0;
  size_t reduces_done_ = 0;
  double last_map_finish_ = 0;
  double completion_time_ = -1;
  double end_time_ = 0;
  bool failed_ = false;
  bool notified_ = false;
  // Ops and retry timers submitted for this job's attempts whose
  // completion has not fired yet (killed attempts' included).
  int in_flight_ = 0;
  bool solo_ = false;  // Run(): the only job on its engine and pool

  Status status_ = Status::OK();

  uint64_t shuffle_from_disk_bytes_ = 0;
  // The time plane's counters — attempts, waste, retries, crashes, and
  // corruption, checkpoint and resident recovery — which ExportResult
  // merges into the result's metrics.
  JobMetrics recovery_;

  uint64_t cum_shuffle_ = 0, cum_work_ = 0, cum_output_ = 0;
  sim::StepSeries map_progress_, reduce_progress_;
  sim::StepSeries shuffle_series_, work_series_, output_series_;
  sim::StepSeries active_[4];
  int active_count_[4] = {0, 0, 0, 0};
};

}  // namespace onepass

#endif  // ONEPASS_MR_REPLAYER_H_
