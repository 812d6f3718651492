#include "src/mr/job_chain.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/mr/slot_pool.h"
#include "src/sim/event_queue.h"

namespace onepass {
namespace {

constexpr size_t kMaxChainStages = 64;

// Phase 4 for one stage: the solo replay RunJob performs, plus placement
// capture for the next stage.
Result<JobResult> ReplayStage(PreparedJob& pj,
                              PartitionPlacement* placement_out) {
  sim::Engine engine;
  SlotPool slots(&engine, pj.config.cluster);
  Replayer replay(&engine, &slots, pj.config, pj.plan, pj.map_ins,
                  pj.reduce_ins, pj.totals);
  RETURN_IF_ERROR(replay.Run());

  JobResult result = std::move(pj.result);
  result.running_time = replay.end_time();
  result.map_finish_time = replay.map_finish_time();
  result.shuffle_from_disk_bytes = replay.shuffle_from_disk_bytes();
  replay.ExportSeries(&result);
  replay.ExportFaultMetrics(&result.metrics);
  slots.ExportUtilization(
      pj.config.timeline_bin_s,
      std::max(replay.end_time(), pj.config.timeline_bin_s),
      &result.cpu_util, &result.iowait);

  placement_out->map_node.resize(pj.map_ins.size());
  for (size_t m = 0; m < pj.map_ins.size(); ++m) {
    placement_out->map_node[m] = replay.map_winner_node(static_cast<int>(m));
  }
  placement_out->reduce_node.resize(pj.reduce_ins.size());
  for (size_t r = 0; r < pj.reduce_ins.size(); ++r) {
    placement_out->reduce_node[r] =
        replay.reduce_winner_node(static_cast<int>(r));
  }
  return result;
}

bool CarriesState(const JobConfig& cfg) {
  return cfg.shuffle_mode == ShuffleMode::kResident &&
         (cfg.engine == EngineKind::kIncHash ||
          cfg.engine == EngineKind::kDincHash);
}

}  // namespace

Result<ChainResult> RunJobChain(const std::vector<ChainStage>& stages) {
  if (stages.empty()) {
    return Status::InvalidArgument("chain needs at least one stage");
  }
  if (stages.size() > kMaxChainStages) {
    return Status::InvalidArgument(
        "chain length must be <= " + std::to_string(kMaxChainStages) +
        ", got " + std::to_string(stages.size()));
  }
  for (size_t i = 0; i < stages.size(); ++i) {
    const ChainStage& st = stages[i];
    if (st.input == nullptr) {
      return Status::InvalidArgument("chain stage " + std::to_string(i) +
                                     " has no input store");
    }
    RETURN_IF_ERROR(st.config.Validate());
    if (i > 0 && st.config.shuffle_mode == ShuffleMode::kResident) {
      const JobConfig& prev = stages[i - 1].config;
      if (st.config.engine != prev.engine || st.config.seed != prev.seed ||
          st.config.cluster.nodes != prev.cluster.nodes ||
          st.config.reducers_per_node != prev.reducers_per_node) {
        return Status::InvalidArgument(
            "resident chain stages must agree on engine kind, seed, node "
            "count, and reducers_per_node (stage " + std::to_string(i) +
            " diverges)");
      }
    }
  }

  ChainResult out;
  out.iterations.reserve(stages.size());
  // Double-buffered state handles: a stage reads `prior` while writing the
  // other buffer, then the buffers swap roles.
  ResidentStateHandle state_a;
  ResidentStateHandle state_b;
  ResidentStateHandle* prior = nullptr;
  PartitionPlacement placement;
  const ChunkStore* prior_input = nullptr;

  for (size_t i = 0; i < stages.size(); ++i) {
    const ChainStage& st = stages[i];
    const bool res = st.config.shuffle_mode == ShuffleMode::kResident;
    ResidentStateHandle* save =
        CarriesState(st.config) ? (prior == &state_a ? &state_b : &state_a)
                                : nullptr;

    ResidentContext ctx;
    ctx.prior_state = i > 0 ? prior : nullptr;
    ctx.placement = i > 0 && !placement.empty() ? &placement : nullptr;
    ctx.save_state = save;
    ctx.prior_input = i > 0 ? prior_input : nullptr;

    ASSIGN_OR_RETURN(PreparedJob pj,
                     LocalCluster::PrepareJob(st.spec, st.config, *st.input,
                                              res ? &ctx : nullptr));
    PartitionPlacement stage_placement;
    ASSIGN_OR_RETURN(JobResult result, ReplayStage(pj, &stage_placement));
    out.iterations.push_back(std::move(result));

    placement = std::move(stage_placement);
    prior = save;
    prior_input = st.input;
  }
  out.placement = std::move(placement);
  return out;
}

}  // namespace onepass
