#include <string>

#include "src/engine/dinc_hash_engine.h"
#include "src/engine/group_by_engine.h"
#include "src/engine/inc_hash_engine.h"
#include "src/engine/mr_hash_engine.h"
#include "src/engine/sort_merge_engine.h"

namespace onepass {

Status CheckReduceContract(EngineKind kind, bool has_reducer, bool has_inc,
                           bool values_are_states) {
  switch (kind) {
    case EngineKind::kSortMerge:
      if (has_reducer || (has_inc && values_are_states)) return Status::OK();
      return Status::InvalidArgument(
          "sort-merge needs a Reducer, or an IncrementalReducer whose "
          "states the map side builds (map_side_combine)");
    case EngineKind::kMRHash:
      if (has_reducer) return Status::OK();
      return Status::InvalidArgument(
          "MR-hash needs a Reducer (the values-list reduce API)");
    case EngineKind::kIncHash:
    case EngineKind::kDincHash:
      if (!has_inc) {
        return Status::InvalidArgument(std::string(EngineKindName(kind)) +
                                       " needs an IncrementalReducer "
                                       "(init/cb/fn)");
      }
      if (values_are_states) return Status::OK();
      return Status::InvalidArgument(
          std::string(EngineKindName(kind)) +
          " consumes states: init() runs map-side, so its input values "
          "must already be states");
  }
  return Status::InvalidArgument("unknown engine kind");
}

Result<std::unique_ptr<GroupByEngine>> CreateGroupByEngine(
    EngineKind kind, const EngineContext& ctx) {
  RETURN_IF_ERROR(CheckReduceContract(kind, ctx.reducer != nullptr,
                                      ctx.inc != nullptr,
                                      ctx.values_are_states));
  switch (kind) {
    case EngineKind::kSortMerge:
      return std::unique_ptr<GroupByEngine>(new SortMergeEngine(ctx));
    case EngineKind::kMRHash:
      return std::unique_ptr<GroupByEngine>(new MRHashEngine(ctx));
    case EngineKind::kIncHash:
      return std::unique_ptr<GroupByEngine>(new IncHashEngine(ctx));
    case EngineKind::kDincHash:
      return std::unique_ptr<GroupByEngine>(new DincHashEngine(ctx));
  }
  return Status::InvalidArgument("unknown engine kind");
}

}  // namespace onepass
