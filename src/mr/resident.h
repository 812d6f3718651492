// Resident shuffle support (DESIGN.md §5.9): the M3R-style layer that
// lets iterative and repeated jobs stop paying disk for the shuffle.
//
// Under shuffle_mode = kResident every map push segment stays in its
// producer's memory for the whole job: its publish write is charged at
// memory speed and a late fetch skips the retention-window disk re-read
// (PrepareJob's resident transform and the Replayer). Two pieces of state
// carry a chain from one stage to the next:
//
//   PartitionPlacement — the registry that pins partition→node assignment
//     across a chain: which node finished each reduce partition and which
//     node produced each map task's output. The next iteration schedules
//     reducers on their prior nodes and prefers the prior map replica, so
//     resident state and cached input are actually co-located with the
//     tasks that reuse them.
//
//   ResidentStateHandle — a finished job's reduce-engine state (the
//     INC/DINC FlatTable image, serialized through the checkpoint field
//     codec) kept in memory so the next job in the chain adopts it instead
//     of re-aggregating unchanged keys.
//
// None of this changes the data plane: phases 1-3 run identically under
// kDisk and kResident, so outputs are byte-identical by construction. Only
// the phase-4 time plane sees different charges.

#ifndef ONEPASS_MR_RESIDENT_H_
#define ONEPASS_MR_RESIDENT_H_

#include <cstdint>
#include <vector>

#include "src/mr/config.h"
#include "src/util/kv_buffer.h"

namespace onepass {

class ChunkStore;

// Which node owns each partition after a job: reduce_node[r] is the node
// whose attempt completed reduce partition r; map_node[m] is the node
// whose attempt published map task m's output. Captured from the
// authoritative replay, fed to the next iteration's task placement.
struct PartitionPlacement {
  std::vector<int> reduce_node;
  std::vector<int> map_node;

  bool empty() const { return reduce_node.empty() && map_node.empty(); }
};

// A finished job's per-reducer engine state, held in memory between chain
// iterations. states[r] is reducer r's full checkpoint field stream (the
// serialization GroupByEngine::SaveState produces); raw_bytes[r] its
// size, which is what the time plane charges for the save and the adopt.
struct ResidentStateHandle {
  std::vector<KvBuffer> states;
  std::vector<uint64_t> raw_bytes;
  // Chain-compatibility stamp: adoption requires the same engine kind and
  // seed (the hash family, and therefore FlatTable layout, derives from
  // the seed).
  EngineKind engine = EngineKind::kIncHash;
  uint64_t seed = 0;

  bool empty() const { return states.empty(); }
  int reducers() const { return static_cast<int>(states.size()); }
};

// Everything PrepareJob needs to run one iteration of a resident chain.
// All pointers are borrowed; null members simply disable that feature, so
// a default-constructed context is a cold resident job.
struct ResidentContext {
  // Prior iteration's reduce state to adopt (INC/DINC only; null = cold).
  const ResidentStateHandle* prior_state = nullptr;
  // Prior iteration's placement; pins reducers to their nodes and prefers
  // the prior map replica. Null = default placement.
  const PartitionPlacement* placement = nullptr;
  // When non-null, phase 3 saves each reducer's pre-Finish engine state
  // here for the next iteration to adopt.
  ResidentStateHandle* save_state = nullptr;
  // The previous iteration's input store. When the current job reads the
  // same store, map input is served from the M3R-style input cache at
  // memory speed instead of disk.
  const ChunkStore* prior_input = nullptr;
};

}  // namespace onepass

#endif  // ONEPASS_MR_RESIDENT_H_
