// Golden-metrics snapshots: one canonical job per engine, with the full
// serialized JobMetrics compared against a checked-in golden file. Any
// change to spill counts, merge passes, shuffle bytes, fault accounting,
// or checksum work shows up as a reviewable one-line diff instead of
// silently shifting costs.
//
// Doubles are serialized at %.9g (see JobMetrics::Serialize), which is
// stable across the optimization levels CI builds at while still catching
// any behavioral change.
//
// To regenerate after an intentional change:
//   UPDATE_GOLDENS=1 ./metrics_golden_test   # then review the diff

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/mr/cluster.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/jobs.h"
#include "tests/test_fingerprint.h"

namespace onepass {
namespace {

std::string GoldenPath(const std::string& prefix, EngineKind engine) {
  return std::string(ONEPASS_TESTS_DIR) + "/golden/" + prefix +
         EngineTag(engine) + ".txt";
}

// The canonical job: 30k clicks on 5 nodes with memory tight enough to
// exercise every engine's spill path.
JobConfig CanonicalConfig(EngineKind engine) {
  JobConfig cfg;
  cfg.engine = engine;
  cfg.cluster.nodes = 5;
  cfg.cluster.cores_per_node = 2;
  cfg.cluster.map_slots = 2;
  cfg.cluster.reduce_slots = 2;
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = 64 << 10;
  cfg.reduce_memory_bytes = 8 << 10;  // tight: exercises the spill paths
  cfg.merge_factor = 4;
  cfg.bucket_page_bytes = 1024;
  cfg.map_side_combine = true;
  cfg.expected_keys_per_reducer = 150;
  cfg.expected_bytes_per_reducer = 64 << 10;
  return cfg;
}

// Runs the click-count job over the canonical input (stored with
// `replication` copies of each chunk) and returns its serialized metrics.
std::string RunSerialized(const JobConfig& cfg) {
  ClickStreamConfig clicks;
  clicks.num_clicks = 30'000;
  clicks.num_users = 1'500;
  clicks.user_skew = 0.8;
  clicks.seed = 11;
  ChunkStore input(64 << 10, 5, cfg.replication);
  GenerateClickStream(clicks, &input);
  auto r = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r->metrics.Serialize() : std::string();
}

void ExpectMatchesGolden(const std::string& got, const std::string& path) {
  if (std::getenv("UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "golden regenerated: " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden " << path
      << " — run with UPDATE_GOLDENS=1 to create it, then check it in";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "metrics diverge from " << path
      << " — if intentional, regenerate with UPDATE_GOLDENS=1 and review";
}

class MetricsGolden : public ::testing::TestWithParam<EngineKind> {};

TEST_P(MetricsGolden, CanonicalJobMatchesGolden) {
  ExpectMatchesGolden(RunSerialized(CanonicalConfig(GetParam())),
                      GoldenPath("metrics_", GetParam()));
}

// The coded, faulted plane: the canonical job with the LZ block codec, a
// map buffer small enough that sort-path maps spill runs, seeded
// corruption on a replication-2 input, and reduce-state checkpoints. Pins
// the codec counters and the rebuild, quarantine and checkpoint
// accounting that the canonical goldens serialize as zeros. The seed's
// fault plan leaves every input chunk a clean replica, so every engine's
// job succeeds.
class CodedFaultedGolden : public ::testing::TestWithParam<EngineKind> {};

TEST_P(CodedFaultedGolden, CodedFaultedJobMatchesGolden) {
  JobConfig cfg = CanonicalConfig(GetParam());
  cfg.block_codec = BlockCodecKind::kLz;
  cfg.map_buffer_bytes = 4 << 10;
  cfg.replication = 2;
  cfg.faults.corruption_rate = 0.05;
  cfg.checkpoint_interval_segments = 4;
  cfg.seed = 2;
  ExpectMatchesGolden(RunSerialized(cfg),
                      GoldenPath("metrics_lz_faulted_", GetParam()));
}

const auto kEngines =
    ::testing::Values(EngineKind::kSortMerge, EngineKind::kMRHash,
                      EngineKind::kIncHash, EngineKind::kDincHash);

std::string EngineParamName(const ::testing::TestParamInfo<EngineKind>& info) {
  return EngineTag(info.param);
}

INSTANTIATE_TEST_SUITE_P(Engines, MetricsGolden, kEngines, EngineParamName);
INSTANTIATE_TEST_SUITE_P(Engines, CodedFaultedGolden, kEngines,
                         EngineParamName);

}  // namespace
}  // namespace onepass
