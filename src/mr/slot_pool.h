// SlotPool: the shared simulated cluster substrate for multi-job replays
// (DESIGN.md §5.7).
//
// One SlotPool owns what used to be private to a single Replayer: the
// per-node simulated resources (CPU pool, disks, NIC), the map/reduce slot
// counters, and the per-node queues of tasks waiting for a slot. Replayers
// (one per job) enqueue work here and the pool decides, slot by slot, which
// job's task starts next:
//
//   * kFifo — earliest-admitted job first (lowest job id with pending work
//     on the node). One registered job degenerates to the historical
//     single-job FIFO pump, byte-identical to the pre-pool replayer.
//   * kFairShare — the job whose tenant has the lowest running-task share
//     (running tasks / weight) goes first; within a tenant, earliest job
//     first. Work-conserving: a heavy tenant waits only while a lighter
//     one has runnable work.
//
// Preemption rides on top of fair share: when a tenant in deficit
// enqueues a map task onto a full node, the pool may evict a running map
// attempt of the most over-share tenant (the victim requeues; its attempt
// budget is not charged — see Replayer::PreemptMapOn).
//
// Determinism: the pool never consults wall clock or RNG. Queues pop in
// insertion order per job, jobs are picked by (share, job id), and every
// tie-break is a pure function of the registered state, so a multi-job
// replay is a pure function of its inputs (the event queue's per-job
// stream tags keep simultaneous cross-job events ordered; see
// src/sim/event_queue.h).

#ifndef ONEPASS_MR_SLOT_POOL_H_
#define ONEPASS_MR_SLOT_POOL_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/mr/config.h"
#include "src/mr/cost_trace.h"
#include "src/sim/event_queue.h"
#include "src/sim/resources.h"
#include "src/sim/timeline.h"

namespace onepass {

class Replayer;

// How the pool arbitrates slots between jobs.
enum class SchedulePolicy : uint8_t { kFifo, kFairShare };

// A task execution waiting for a slot; speculative entries are backup
// attempts (first finisher wins).
struct PendingTask {
  int task = 0;
  bool speculative = false;
};

class SlotPool {
 public:
  struct Options {
    SchedulePolicy policy = SchedulePolicy::kFifo;
    bool preemption = false;
  };

  SlotPool(sim::Engine* engine, const ClusterConfig& cluster)
      : SlotPool(engine, cluster, Options()) {}
  SlotPool(sim::Engine* engine, const ClusterConfig& cluster,
           Options options);

  // Declares a tenant (weight > 0). Tenant 0 exists implicitly with
  // weight 1 — solo replays never call this.
  void RegisterTenant(int tenant, double weight);

  // Job lifecycle. Job ids must be unique among registered jobs; the
  // pool holds `client` until UnregisterJob. Unregistering requires the
  // job to have released every slot (its Replayer kills attempts first).
  void RegisterJob(int job, int tenant, Replayer* client);
  void UnregisterJob(int job);

  // Appends an entry to the job's queue on `node` without pumping —
  // used for the initial wave so event creation order matches the
  // historical "enqueue everything, then pump" sequence.
  void QueueMap(int job, int node, PendingTask p);
  void QueueReduce(int job, int node, PendingTask p);

  // Appends and immediately pumps the node; EnqueueMap may then preempt
  // (fair-share + preemption only) if the entry is still waiting.
  void EnqueueMap(int job, int node, PendingTask p);
  void EnqueueReduce(int job, int node, PendingTask p);

  // One preemption pass on behalf of a newly admitted job: for every node
  // where the job still has queued maps on a full node, tries to evict a
  // running attempt of an over-share tenant. No-op unless preemption and
  // fair share are both on (so also a no-op for solo replays).
  void PreemptForJob(int job);

  // Removes and returns the job's queued entries on `node` (crash
  // handling / failure cleanup; the caller resets its queued flags).
  std::vector<PendingTask> TakeJobQueue(int job, int node, bool is_map);

  // Returns a slot the job acquired on `node` and pumps the node. Called
  // exactly once per started attempt, on completion, kill, or preemption
  // — even when the node is dead *for that job* (fail-stop death is a
  // per-job fault domain; the node keeps serving other jobs).
  void ReleaseSlot(int job, int node, bool is_map);

  // Fills free slots on `node` from the queues, in policy order.
  void PumpNode(int node);

  // Queue + busy-slot pressure, as Replayer placement heuristics see it.
  int MapLoad(int node) const;
  int ReduceLoad(int node) const;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  // The simulated server an op occupies on `node`.
  sim::Server* Route(int node, const TraceOp& op);

  // Cluster-average CPU utilization and iowait over [0, horizon].
  // InvalidArgument, with nothing allocated, when a series would need more
  // than sim::kMaxSeriesBins bins.
  Status ExportUtilization(double bin_s, double horizon,
                           sim::BinnedSeries* util,
                           sim::BinnedSeries* iowait) const;

  uint64_t preemptions() const { return preemptions_; }

 private:
  struct NodeState {
    NodeState(sim::Engine* engine, const ClusterConfig& cl, int id);
    sim::Server cpu;
    sim::Server hdd;
    std::unique_ptr<sim::Server> ssd;
    sim::Server nic;
    int free_map_slots;
    int free_reduce_slots;
    // Per-job FIFO queues, keyed by job id (iteration = admission order).
    std::map<int, std::deque<PendingTask>> map_q;
    std::map<int, std::deque<PendingTask>> reduce_q;
    // Running map attempts per job on this node (preemption victims).
    std::map<int, int> running_maps;
    int pending_maps = 0;     // totals across jobs
    int pending_reduces = 0;
  };
  struct JobInfo {
    Replayer* client = nullptr;
    int tenant = 0;
  };
  struct TenantState {
    double weight = 1.0;
    int running = 0;  // map + reduce attempts holding slots
  };

  // Next job to grant a slot on `node` (-1 = none runnable now).
  int PickJob(const NodeState& node, int node_id, bool is_map) const;
  // Tries to evict one running map attempt on `node` so the (deficit)
  // tenant of `job` can start its queued map task. True on eviction.
  bool MaybePreempt(int node, int job);

  TenantState& Tenant(int id);

  sim::Engine* engine_;
  ClusterConfig cluster_;
  Options options_;
  std::vector<std::unique_ptr<NodeState>> nodes_;
  std::map<int, JobInfo> jobs_;
  std::map<int, TenantState> tenants_;
  uint64_t preemptions_ = 0;
};

}  // namespace onepass

#endif  // ONEPASS_MR_SLOT_POOL_H_
