#include "src/mr/job_chain.h"

#include <string>
#include <utility>

namespace onepass {
namespace {

constexpr size_t kMaxChainStages = 64;

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
    if (const Status s = ValidateJob(st.spec, st.config); !s.ok()) {
      return Status(s.code(), "chain stage " + std::to_string(i) + ": " +
                                  std::string(s.message()));
    }
    if (i > 0) {
      const JobConfig& prev = stages[i - 1].config;
      if (st.config.engine != prev.engine || st.config.seed != prev.seed ||
          st.config.cluster.nodes != prev.cluster.nodes ||
          st.config.reducers_per_node != prev.reducers_per_node) {
        return Status::InvalidArgument(
            "chain stages must agree on engine kind, seed, node "
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
    // PrepareJob's ResolveChain saves state only on the engines that
    // carry it (INC/DINC).
    ResidentStateHandle* save = prior == &state_a ? &state_b : &state_a;

    ResidentContext ctx;
    ctx.prior_state = i > 0 ? prior : nullptr;
    ctx.placement = i > 0 && !placement.empty() ? &placement : nullptr;
    ctx.save_state = save;
    ctx.prior_input = i > 0 ? prior_input : nullptr;

    ASSIGN_OR_RETURN(PreparedJob pj,
                     LocalCluster::PrepareJob(st.spec, st.config, *st.input,
                                              &ctx));
    // The prepared job keeps no pointer into `placement`, so the replay
    // may overwrite it with this stage's winners.
    ASSIGN_OR_RETURN(JobResult result,
                     LocalCluster::Replay(std::move(pj), &placement));
    out.iterations.push_back(std::move(result));
    prior = save;
    prior_input = st.input;
  }
  out.placement = std::move(placement);
  return out;
}

}  // namespace onepass
