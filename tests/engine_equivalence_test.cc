// The central property, swept broadly: every engine computes the same
// group-by under every memory regime — ample, tight, and starved — and
// regardless of bucket-page size or merge factor.

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <type_traits>

#include "src/mr/cluster.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/jobs.h"
#include "src/workloads/reference.h"

namespace onepass {
namespace {

// gtest prints a parameter that has no PrintTo as its raw bytes, and ctest
// names each case after that text. Compiler padding is indeterminate, so
// every byte here is a named, zero-initialised member: the case names are
// then the same on every build and every run.
struct Params {
  Params(EngineKind e, uint64_t memory, int factor, uint64_t page)
      : engine(e), reduce_memory(memory), merge_factor(factor), page_bytes(page) {}

  EngineKind engine;
  uint8_t pad0[7] = {};
  uint64_t reduce_memory;
  int merge_factor;
  int32_t pad1 = 0;
  uint64_t page_bytes;
};
static_assert(std::has_unique_object_representations_v<Params>,
              "Params must have no padding bytes");
static_assert(sizeof(Params) == 32);

std::string ParamName(const ::testing::TestParamInfo<Params>& info) {
  std::string name;
  switch (info.param.engine) {
    case EngineKind::kSortMerge:
      name = "SortMerge";
      break;
    case EngineKind::kMRHash:
      name = "MRHash";
      break;
    case EngineKind::kIncHash:
      name = "IncHash";
      break;
    case EngineKind::kDincHash:
      name = "DincHash";
      break;
  }
  name += "_mem" + std::to_string(info.param.reduce_memory >> 10) + "k";
  name += "_f" + std::to_string(info.param.merge_factor);
  name += "_page" + std::to_string(info.param.page_bytes);
  return name;
}

class EquivalenceSweep : public ::testing::TestWithParam<Params> {};

TEST_P(EquivalenceSweep, ClickCountsExact) {
  const Params& p = GetParam();
  ClickStreamConfig clicks;
  clicks.num_clicks = 30'000;
  clicks.num_users = 1'500;
  clicks.user_skew = 0.8;
  clicks.seed = 11;
  ChunkStore input(64 << 10, 5);
  GenerateClickStream(clicks, &input);

  JobConfig cfg;
  cfg.engine = p.engine;
  cfg.cluster.nodes = 5;
  cfg.cluster.cores_per_node = 2;
  cfg.cluster.map_slots = 2;
  cfg.cluster.reduce_slots = 2;
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = 64 << 10;
  cfg.reduce_memory_bytes = p.reduce_memory;
  cfg.merge_factor = p.merge_factor;
  cfg.bucket_page_bytes = p.page_bytes;
  cfg.map_side_combine = true;
  cfg.collect_outputs = true;
  cfg.expected_keys_per_reducer = 150;
  cfg.expected_bytes_per_reducer = 64 << 10;

  auto r = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const auto expected = ReferenceClickCounts(input, ClickKeyField::kUser);
  std::map<std::string, uint64_t> got;
  for (const Record& rec : r->outputs) {
    EXPECT_EQ(got.count(rec.key), 0u) << "duplicate key " << rec.key;
    got[rec.key] = std::stoull(rec.value);
  }
  EXPECT_EQ(got, expected);
}

constexpr uint64_t kAmple = 1 << 20;
constexpr uint64_t kTight = 8 << 10;
constexpr uint64_t kStarved = 2 << 10;

INSTANTIATE_TEST_SUITE_P(
    Sweep, EquivalenceSweep,
    ::testing::Values(
        Params{EngineKind::kSortMerge, kAmple, 8, 4096},
        Params{EngineKind::kSortMerge, kTight, 8, 4096},
        Params{EngineKind::kSortMerge, kStarved, 3, 4096},
        Params{EngineKind::kSortMerge, kStarved, 2, 512},
        Params{EngineKind::kMRHash, kAmple, 8, 4096},
        Params{EngineKind::kMRHash, kTight, 8, 1024},
        Params{EngineKind::kMRHash, kStarved, 8, 512},
        Params{EngineKind::kIncHash, kAmple, 8, 4096},
        Params{EngineKind::kIncHash, kTight, 8, 1024},
        Params{EngineKind::kIncHash, kStarved, 8, 512},
        Params{EngineKind::kDincHash, kAmple, 8, 4096},
        Params{EngineKind::kDincHash, kTight, 8, 1024},
        Params{EngineKind::kDincHash, kStarved, 8, 512}),
    ParamName);

}  // namespace
}  // namespace onepass
