// Batch-equivalence property test for the vectorized data plane
// (DESIGN.md §5.8): the batch-at-a-time walk is an execution strategy,
// never a semantics change. For every engine, a Zipf-skewed, padded-value
// clickstream under starved reduce memory must produce byte-identical
// results — outputs, every serialized metric, the simulated clock, and
// every progress curve — across the plane's execution shapes
//   SIMD tier    {every supported hardware tier: SSE4.2, AVX2, AVX-512
//                 on x86-64; the CRC32 extension on ARMv8}   x
//   threads      {1, 8}                                      x
//   codec        {kNone, kLz}
// and under a faulted schedule (crash + straggler + corruption). The
// baseline is one thread with the process-wide SIMD tier pinned to
// kScalar. Pinning each tier in turn runs its hash-mix and CRC32C kernels
// in whole jobs, including tiers the host would not auto-select. Anything
// the batch plane changes beyond wall-clock shows up here as a
// fingerprint diff.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/mr/cluster.h"
#include "src/util/simd_dispatch.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/jobs.h"
#include "tests/test_fingerprint.h"

namespace onepass {
namespace {

// Zipf-skewed users, padded 128-byte records: the §5.8 stress shape.
ChunkStore MakeInputStore(int replication = 1) {
  ClickStreamConfig clicks;
  clicks.num_clicks = 24'000;
  clicks.num_users = 1'200;
  clicks.user_skew = 1.1;
  clicks.record_bytes = 128;
  clicks.seed = 58;
  ChunkStore input(64 << 10, 5, replication);
  GenerateClickStream(clicks, &input);
  return input;
}

// Starved reduce memory: every engine spills, so the batched digests
// route records through the spill/bucket paths too.
JobConfig BaseConfig(EngineKind engine) {
  JobConfig cfg;
  cfg.engine = engine;
  cfg.cluster.nodes = 5;
  cfg.cluster.cores_per_node = 2;
  cfg.cluster.map_slots = 2;
  cfg.cluster.reduce_slots = 2;
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = 64 << 10;
  cfg.reduce_memory_bytes = 8 << 10;
  cfg.merge_factor = 4;
  cfg.bucket_page_bytes = 1024;
  cfg.map_side_combine = true;
  cfg.collect_outputs = true;
  cfg.expected_keys_per_reducer = 150;
  cfg.expected_bytes_per_reducer = 64 << 10;
  return cfg;
}

// The hardware tiers this host can run, each compared with the scalar
// baseline.
std::vector<SimdTier> HardwareTiers() {
  std::vector<SimdTier> tiers;
  for (const SimdTier tier : {SimdTier::kSse42, SimdTier::kAvx2,
                              SimdTier::kAvx512, SimdTier::kArmCrc}) {
    if (SimdTierSupported(tier)) tiers.push_back(tier);
  }
  return tiers;
}

void ExpectBatchInvariant(const JobConfig& base, const ChunkStore& input) {
  // Leaves the detected tier installed however the loop exits.
  struct RestoreDetectedTier {
    ~RestoreDetectedTier() { SetSimdTier(DetectSimdTier()); }
  } restore;
  for (const BlockCodecKind codec :
       {BlockCodecKind::kNone, BlockCodecKind::kLz}) {
    JobConfig cfg = base;
    cfg.block_codec = codec;
    // Baseline: one thread, SIMD kernels pinned off.
    cfg.data_plane_threads = 1;
    SetSimdTier(SimdTier::kScalar);
    auto baseline = LocalCluster::RunJob(ClickCountJob(), cfg, input);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    const std::string want = Fingerprint(*baseline);
    for (const SimdTier tier : HardwareTiers()) {
      for (const int threads : {1, 8}) {
        ASSERT_EQ(SetSimdTier(tier), tier);
        cfg.data_plane_threads = threads;
        auto run = LocalCluster::RunJob(ClickCountJob(), cfg, input);
        ASSERT_TRUE(run.ok()) << SimdTierName(tier) << " threads=" << threads
                              << ": " << run.status().ToString();
        EXPECT_EQ(Fingerprint(*run), want)
            << SimdTierName(tier) << " threads=" << threads
            << " codec=" << static_cast<int>(codec)
            << " diverged from the scalar baseline";
      }
    }
  }
}

class BatchEquivalence : public ::testing::TestWithParam<EngineKind> {};

TEST_P(BatchEquivalence, CleanRunByteIdenticalAcrossBatchShapes) {
  const ChunkStore input = MakeInputStore();
  ExpectBatchInvariant(BaseConfig(GetParam()), input);
}

TEST_P(BatchEquivalence, FaultedRunByteIdenticalAcrossBatchShapes) {
  const ChunkStore input = MakeInputStore(/*replication=*/2);
  JobConfig cfg = BaseConfig(GetParam());
  // Crash, straggler, transient errors, and silent corruption at once:
  // recovery replays must land on the same bytes at every tier and thread
  // count.
  cfg.replication = 2;
  cfg.faults.crashes.push_back({.node = 2, .at_map_fraction = 0.5});
  cfg.faults.stragglers.push_back(
      {.node = 1, .cpu_factor = 2.0, .disk_factor = 1.5});
  cfg.faults.disk_error_rate = 0.05;
  cfg.faults.fetch_failure_rate = 0.05;
  cfg.faults.speculative_execution = true;
  cfg.faults.corruption_rate = 0.01;
  cfg.faults.torn_writes = true;
  ExpectBatchInvariant(cfg, input);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, BatchEquivalence,
    ::testing::Values(EngineKind::kSortMerge, EngineKind::kMRHash,
                      EngineKind::kIncHash, EngineKind::kDincHash),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      std::string name(EngineKindName(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace onepass
