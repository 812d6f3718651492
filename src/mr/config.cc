#include "src/mr/config.h"

#include <cmath>
#include <string>

namespace onepass {

std::string_view EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kSortMerge:
      return "sort-merge";
    case EngineKind::kMRHash:
      return "MR-hash";
    case EngineKind::kIncHash:
      return "INC-hash";
    case EngineKind::kDincHash:
      return "DINC-hash";
  }
  return "unknown";
}

std::string_view CombineScopeName(CombineScope scope) {
  switch (scope) {
    case CombineScope::kTask:
      return "task";
    case CombineScope::kNode:
      return "node";
  }
  return "unknown";
}

Status JobConfig::Validate() const {
  if (cluster.nodes < 1 || cluster.cores_per_node < 1 ||
      cluster.map_slots < 1 || cluster.reduce_slots < 1) {
    return Status::InvalidArgument("invalid cluster shape");
  }
  if (reducers_per_node < 1) {
    return Status::InvalidArgument("need at least one reducer per node");
  }
  if (merge_factor < 2) {
    return Status::InvalidArgument("merge_factor must be >= 2");
  }
  if (chunk_bytes == 0) {
    return Status::InvalidArgument("chunk_bytes must be > 0");
  }
  if (map_buffer_bytes == 0 || reduce_memory_bytes == 0) {
    return Status::InvalidArgument("map/reduce buffers must be > 0");
  }
  if (!std::isfinite(timeline_bin_s) || timeline_bin_s <= 0) {
    return Status::InvalidArgument(
        "timeline_bin_s must be positive and finite, got " +
        std::to_string(timeline_bin_s));
  }
  if (dinc_coverage_threshold < 0 || dinc_coverage_threshold > 1.0) {
    return Status::InvalidArgument(
        "dinc_coverage_threshold outside (0, 1]");
  }
  if (dinc_coverage_threshold > 0 && engine != EngineKind::kDincHash) {
    return Status::InvalidArgument(
        "dinc_coverage_threshold (coverage-based early answers) is a "
        "DINC-hash feature");
  }
  if (pipelining && engine != EngineKind::kSortMerge) {
    return Status::InvalidArgument(
        "pipelining is a sort-merge feature: the hash engines are already "
        "incremental");
  }
  if (snapshots < 0) {
    return Status::InvalidArgument("snapshots must be >= 0, got " +
                                   std::to_string(snapshots));
  }
  if (snapshots > 0 && engine != EngineKind::kSortMerge) {
    return Status::InvalidArgument(
        "snapshots are a sort-merge feature: the hash engines emit "
        "continuously and take no snapshots");
  }
  if (replication < 1 || replication > cluster.nodes) {
    return Status::InvalidArgument(
        "replication must be in [1, nodes], got " +
        std::to_string(replication));
  }
  if (data_plane_threads < 0 || data_plane_threads > 1024) {
    return Status::InvalidArgument(
        "data_plane_threads must be in [0, 1024] (0 = one per hardware "
        "thread), got " +
        std::to_string(data_plane_threads));
  }
  if (combine_scope == CombineScope::kNode) {
    if (pipelining) {
      return Status::InvalidArgument(
          "combine_scope=kNode is incompatible with pipelining: eager "
          "per-spill pushes defeat the node combine barrier");
    }
    if ((engine == EngineKind::kSortMerge || engine == EngineKind::kMRHash) &&
        !map_side_combine) {
      return Status::InvalidArgument(
          "combine_scope=kNode needs a combine function: enable "
          "map_side_combine (values-list reducers alone cannot merge "
          "partial aggregates at the node tier)");
    }
  }
  if (node_combine_budget_bytes != 0 && node_combine_budget_bytes < 4096) {
    return Status::InvalidArgument(
        "node_combine_budget_bytes must be 0 (unbounded) or >= 4096: a "
        "budget below one table block degrades every shard to the sketch, "
        "got " +
        std::to_string(node_combine_budget_bytes));
  }
  if (checkpoint_interval_segments > 0) {
    if (checkpoint_replication < 1 ||
        checkpoint_replication > cluster.nodes) {
      return Status::InvalidArgument(
          "checkpoint_replication must be in [1, nodes], got " +
          std::to_string(checkpoint_replication));
    }
  }
  return faults.Validate(cluster.nodes);
}

}  // namespace onepass
