#include "src/mr/slot_pool.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/mr/replayer.h"

namespace onepass {

SlotPool::NodeState::NodeState(sim::Engine* engine, const ClusterConfig& cl,
                               int id)
    : cpu(engine, cl.cores_per_node, "cpu" + std::to_string(id)),
      hdd(engine, 1, "hdd" + std::to_string(id)),
      nic(engine, 1, "nic" + std::to_string(id)),
      free_map_slots(cl.map_slots),
      free_reduce_slots(cl.reduce_slots) {
  if (cl.separate_intermediate_device) {
    ssd = std::make_unique<sim::Server>(engine, 1, "ssd" + std::to_string(id));
  }
}

SlotPool::SlotPool(sim::Engine* engine, const ClusterConfig& cluster,
                   Options options)
    : engine_(engine), cluster_(cluster), options_(options) {
  nodes_.reserve(static_cast<size_t>(cluster.nodes));
  for (int n = 0; n < cluster.nodes; ++n) {
    nodes_.push_back(std::make_unique<NodeState>(engine, cluster, n));
  }
  tenants_[0] = TenantState{};
}

SlotPool::TenantState& SlotPool::Tenant(int id) {
  auto it = tenants_.find(id);
  CHECK(it != tenants_.end());
  return it->second;
}

void SlotPool::RegisterTenant(int tenant, double weight) {
  CHECK_GT(weight, 0.0);
  tenants_[tenant].weight = weight;
}

void SlotPool::RegisterJob(int job, int tenant, Replayer* client) {
  CHECK(client != nullptr);
  CHECK(tenants_.count(tenant) != 0);
  auto [it, inserted] = jobs_.emplace(job, JobInfo{client, tenant});
  CHECK(inserted);
}

void SlotPool::UnregisterJob(int job) {
  auto it = jobs_.find(job);
  CHECK(it != jobs_.end());
  for (auto& node : nodes_) {
    auto mq = node->map_q.find(job);
    if (mq != node->map_q.end()) {
      node->pending_maps -= static_cast<int>(mq->second.size());
      node->map_q.erase(mq);
    }
    auto rq = node->reduce_q.find(job);
    if (rq != node->reduce_q.end()) {
      node->pending_reduces -= static_cast<int>(rq->second.size());
      node->reduce_q.erase(rq);
    }
    CHECK(node->running_maps.count(job) == 0);
  }
  jobs_.erase(it);
}

void SlotPool::QueueMap(int job, int node, PendingTask p) {
  nodes_[static_cast<size_t>(node)]->map_q[job].push_back(p);
  ++nodes_[static_cast<size_t>(node)]->pending_maps;
}

void SlotPool::QueueReduce(int job, int node, PendingTask p) {
  nodes_[static_cast<size_t>(node)]->reduce_q[job].push_back(p);
  ++nodes_[static_cast<size_t>(node)]->pending_reduces;
}

void SlotPool::EnqueueMap(int job, int node, PendingTask p) {
  QueueMap(job, node, p);
  PumpNode(node);
  if (options_.preemption && options_.policy == SchedulePolicy::kFairShare) {
    MaybePreempt(node, job);
  }
}

void SlotPool::EnqueueReduce(int job, int node, PendingTask p) {
  QueueReduce(job, node, p);
  PumpNode(node);
}

std::vector<PendingTask> SlotPool::TakeJobQueue(int job, int node,
                                                bool is_map) {
  NodeState& nd = *nodes_[static_cast<size_t>(node)];
  auto& qmap = is_map ? nd.map_q : nd.reduce_q;
  std::vector<PendingTask> out;
  auto it = qmap.find(job);
  if (it == qmap.end()) return out;
  out.assign(it->second.begin(), it->second.end());
  (is_map ? nd.pending_maps : nd.pending_reduces) -=
      static_cast<int>(out.size());
  qmap.erase(it);
  return out;
}

void SlotPool::ReleaseSlot(int job, int node, bool is_map) {
  NodeState& nd = *nodes_[static_cast<size_t>(node)];
  TenantState& t = Tenant(jobs_.at(job).tenant);
  if (is_map) {
    CHECK_LT(nd.free_map_slots, cluster_.map_slots);
    ++nd.free_map_slots;
    auto it = nd.running_maps.find(job);
    CHECK(it != nd.running_maps.end());
    if (--it->second == 0) nd.running_maps.erase(it);
  } else {
    CHECK_LT(nd.free_reduce_slots, cluster_.reduce_slots);
    ++nd.free_reduce_slots;
  }
  --t.running;
  PumpNode(node);
}

int SlotPool::PickJob(const NodeState& node, int node_id,
                      bool is_map) const {
  const auto& qmap = is_map ? node.map_q : node.reduce_q;
  int best = -1;
  double best_share = 0;
  for (const auto& [job, q] : qmap) {
    if (q.empty()) continue;
    const JobInfo& info = jobs_.at(job);
    if (!info.client->SchedulableOn(node_id)) continue;
    if (options_.policy == SchedulePolicy::kFifo) return job;
    const TenantState& t = tenants_.at(info.tenant);
    const double share = static_cast<double>(t.running) / t.weight;
    // Ties go to the earlier job (ascending map order).
    if (best < 0 || share < best_share) {
      best = job;
      best_share = share;
    }
  }
  return best;
}

void SlotPool::PumpNode(int n) {
  NodeState& nd = *nodes_[static_cast<size_t>(n)];
  while (nd.free_map_slots > 0) {
    const int job = PickJob(nd, n, /*is_map=*/true);
    if (job < 0) break;
    auto& q = nd.map_q[job];
    const PendingTask p = q.front();
    q.pop_front();
    if (q.empty()) nd.map_q.erase(job);
    --nd.pending_maps;
    const JobInfo info = jobs_.at(job);
    info.client->QueueEntryPopped(/*is_map=*/true, p);
    if (!info.client->EntryRunnable(/*is_map=*/true, p)) continue;
    --nd.free_map_slots;
    ++nd.running_maps[job];
    ++Tenant(info.tenant).running;
    info.client->StartMapAttempt(p.task, n, p.speculative);
  }
  while (nd.free_reduce_slots > 0) {
    const int job = PickJob(nd, n, /*is_map=*/false);
    if (job < 0) break;
    auto& q = nd.reduce_q[job];
    const PendingTask p = q.front();
    q.pop_front();
    if (q.empty()) nd.reduce_q.erase(job);
    --nd.pending_reduces;
    const JobInfo info = jobs_.at(job);
    info.client->QueueEntryPopped(/*is_map=*/false, p);
    if (!info.client->EntryRunnable(/*is_map=*/false, p)) continue;
    --nd.free_reduce_slots;
    ++Tenant(info.tenant).running;
    info.client->StartReduceAttempt(p.task, n, p.speculative);
  }
}

void SlotPool::PreemptForJob(int job) {
  if (!options_.preemption ||
      options_.policy != SchedulePolicy::kFairShare) {
    return;
  }
  for (size_t n = 0; n < nodes_.size(); ++n) {
    NodeState& nd = *nodes_[n];
    auto it = nd.map_q.find(job);
    if (it == nd.map_q.end()) continue;
    // Each eviction pumps the node and may consume one waiting entry, so
    // the pass is bounded by the entries queued now; the first failed
    // attempt ends it (nothing changed, retrying cannot succeed).
    const size_t waiting = it->second.size();
    for (size_t i = 0; i < waiting; ++i) {
      auto again = nd.map_q.find(job);
      if (again == nd.map_q.end() || again->second.empty()) break;
      if (!MaybePreempt(static_cast<int>(n), job)) break;
    }
  }
}

bool SlotPool::MaybePreempt(int node, int job) {
  NodeState& nd = *nodes_[static_cast<size_t>(node)];
  // Only act if the beneficiary's entry is still waiting on a full node.
  auto wq = nd.map_q.find(job);
  if (wq == nd.map_q.end() || wq->second.empty()) return false;
  if (nd.free_map_slots > 0) return false;
  const JobInfo& binfo = jobs_.at(job);
  if (!binfo.client->SchedulableOn(node)) return false;
  const TenantState& bt = tenants_.at(binfo.tenant);
  const double b_share_after =
      static_cast<double>(bt.running + 1) / bt.weight;

  // Candidate victims: jobs of *other* tenants with a running map attempt
  // on this node. Evict from the most over-share tenant, latest-admitted
  // job first, and only when the transfer leaves the victim tenant at or
  // above the beneficiary's post-transfer share — the discrete
  // no-ping-pong condition (the freed slot can never be preempted back).
  struct Candidate {
    double share;
    int tenant;
    int job;
  };
  std::vector<Candidate> cands;
  for (const auto& [vjob, count] : nd.running_maps) {
    CHECK_GT(count, 0);
    const JobInfo& vinfo = jobs_.at(vjob);
    if (vinfo.tenant == binfo.tenant) continue;
    const TenantState& vt = tenants_.at(vinfo.tenant);
    const double share_after =
        static_cast<double>(vt.running - 1) / vt.weight;
    if (share_after < b_share_after) continue;
    cands.push_back({static_cast<double>(vt.running) / vt.weight,
                     vinfo.tenant, vjob});
  }
  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.share != b.share) return a.share > b.share;
              if (a.tenant != b.tenant) return a.tenant < b.tenant;
              return a.job > b.job;
            });
  for (const Candidate& c : cands) {
    // PreemptMapOn kills one attempt and releases its slot, which pumps
    // this node — the freed slot goes to whichever queued job the policy
    // now favors (usually the beneficiary, being in deficit).
    if (jobs_.at(c.job).client->PreemptMapOn(node)) {
      ++preemptions_;
      return true;
    }
  }
  return false;
}

int SlotPool::MapLoad(int node) const {
  const NodeState& nd = *nodes_[static_cast<size_t>(node)];
  return nd.pending_maps + (cluster_.map_slots - nd.free_map_slots);
}

int SlotPool::ReduceLoad(int node) const {
  const NodeState& nd = *nodes_[static_cast<size_t>(node)];
  return nd.pending_reduces + (cluster_.reduce_slots - nd.free_reduce_slots);
}

sim::Server* SlotPool::Route(int node, const TraceOp& op) {
  NodeState& nd = *nodes_[static_cast<size_t>(node)];
  switch (op.resource) {
    case OpResource::kCpu:
      return &nd.cpu;
    case OpResource::kNet:
      return &nd.nic;
    case OpResource::kDisk:
      if (nd.ssd != nullptr && op.tag != OpTag::kMapInput &&
          op.tag != OpTag::kOutput) {
        return nd.ssd.get();
      }
      return &nd.hdd;
    case OpResource::kStall:
      break;  // stalls occupy no server; the replayer schedules a timer
  }
  CHECK(false);
  return nullptr;
}

void SlotPool::ExportUtilization(double bin_s, double horizon,
                                 sim::BinnedSeries* util,
                                 sim::BinnedSeries* iowait) const {
  sim::BinnedSeries u_sum, w_sum;
  for (size_t n = 0; n < nodes_.size(); ++n) {
    sim::BinnedSeries u = sim::UtilizationSeries(nodes_[n]->cpu, bin_s,
                                                 horizon);
    sim::BinnedSeries w = sim::IowaitSeries(nodes_[n]->cpu, nodes_[n]->hdd,
                                            bin_s, horizon);
    if (nodes_[n]->ssd != nullptr) {
      sim::BinnedSeries w2 =
          sim::IowaitSeries(nodes_[n]->cpu, *nodes_[n]->ssd, bin_s, horizon);
      for (size_t i = 0; i < w.values.size(); ++i) {
        w.values[i] = std::max(w.values[i], w2.values[i]);
      }
    }
    if (n == 0) {
      u_sum = u;
      w_sum = w;
    } else {
      for (size_t i = 0; i < u_sum.values.size(); ++i) {
        u_sum.values[i] += u.values[i];
        w_sum.values[i] += w.values[i];
      }
    }
  }
  for (auto& v : u_sum.values) v /= static_cast<double>(nodes_.size());
  for (auto& v : w_sum.values) v /= static_cast<double>(nodes_.size());
  *util = u_sum;
  *iowait = w_sum;
}

}  // namespace onepass
