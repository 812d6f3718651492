// Job chains (DESIGN.md §5.9): run a sequence of jobs as one iterative
// computation with M3R-style reuse between stages.
//
// Every stage is resident (its shuffle stays in memory; resident.h), and
// each stage after the first inherits:
//   * the PartitionPlacement of its predecessor — reduce partitions pin to
//     the nodes that finished them, map tasks prefer the replica that
//     produced their output, so state and cached input stay local;
//   * (INC/DINC only) a ResidentStateHandle — the predecessor's pre-Finish
//     key->state table, adopted by the fresh engines before any delivery,
//     so unchanged keys are never re-aggregated. Stage k's output is the
//     full refreshed answer over everything stages 0..k consumed: a chain
//     over a base store plus deltas ends exactly where one cold job over
//     the union would (the job_chain test pins this down);
//   * input caching — a stage that re-reads its predecessor's ChunkStore
//     serves map input at memory speed.
//
// The cold baseline bench_iterative compares against is a loop of solo
// RunJob calls.

#ifndef ONEPASS_MR_JOB_CHAIN_H_
#define ONEPASS_MR_JOB_CHAIN_H_

#include <vector>

#include "src/mr/cluster.h"
#include "src/mr/resident.h"

namespace onepass {

// One stage of a chain. `input` is borrowed and must outlive the run.
// Consecutive stages must agree on engine kind, seed, node count, and
// reducers_per_node (the carried table's hash family and partitioning
// derive from them).
struct ChainStage {
  JobSpec spec;
  JobConfig config;
  const ChunkStore* input = nullptr;
};

struct ChainResult {
  // Per-stage results, in order. iterations[k].metrics carries the
  // resident counters (hits, spills, adoptions) for stage k.
  std::vector<JobResult> iterations;
  // The final stage's placement, usable to chain further runs.
  PartitionPlacement placement;
};

// Runs the stages in order, threading placement and (INC/DINC only)
// reduce state between them. Every stage passes ValidateJob, and
// consecutive stages must agree, before stage 0 runs: an invalid or
// incompatible stage fails the chain (naming the stage) with no task run.
// A stage's job failure fails the chain with that stage's status.
Result<ChainResult> RunJobChain(const std::vector<ChainStage>& stages);

}  // namespace onepass

#endif  // ONEPASS_MR_JOB_CHAIN_H_
