// Sessionization across engines, swept over memory regimes: with ample
// state and ordered arrival every engine must reproduce the reference
// sessions exactly; under memory pressure the click multiset must still
// be preserved (no click lost or duplicated).

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "src/mr/cluster.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/jobs.h"
#include "src/workloads/reference.h"

namespace onepass {
namespace {

ChunkStore MakeInput() {
  ClickStreamConfig clicks;
  clicks.num_clicks = 25'000;
  clicks.num_users = 700;
  clicks.user_skew = 0.6;
  clicks.clicks_per_second = 2;  // hours of stream: sessions expire
  clicks.seed = 31;
  ChunkStore input(64 << 10, 4);
  GenerateClickStream(clicks, &input);
  return input;
}

using Param = std::tuple<EngineKind, uint64_t /*reduce memory*/>;

class SessionSweep : public ::testing::TestWithParam<Param> {};

TEST_P(SessionSweep, ClickMultisetPreserved) {
  const auto [engine, memory] = GetParam();
  const ChunkStore input = MakeInput();

  JobConfig cfg;
  cfg.engine = engine;
  cfg.cluster.nodes = 4;
  cfg.cluster.reduce_slots = 2;
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = 64 << 10;
  cfg.reduce_memory_bytes = memory;
  cfg.merge_factor = 6;
  cfg.expected_keys_per_reducer = 180;
  cfg.expected_bytes_per_reducer = 1 << 20;
  cfg.collect_outputs = true;

  auto r = LocalCluster::RunJob(SessionizationJob(512), cfg, input);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  std::multiset<std::tuple<std::string, uint64_t, uint32_t>> expected;
  for (const Chunk& chunk : input.chunks()) {
    KvBufferReader reader(chunk.records);
    std::string_view k, v;
    while (reader.Next(&k, &v)) {
      Click c;
      ASSERT_TRUE(DecodeClick(v, &c));
      expected.insert({UserKey(c.user), c.ts, c.url});
    }
  }
  std::multiset<std::tuple<std::string, uint64_t, uint32_t>> actual;
  for (const Record& rec : r->outputs) {
    uint64_t session, ts;
    uint32_t url;
    ASSERT_TRUE(DecodeSessionOutput(rec.value, &session, &ts, &url));
    actual.insert({rec.key, ts, url});
  }
  EXPECT_EQ(expected, actual);
}

// Exact session ids need ample state: 2 MB of reduce memory.
class SessionExactness : public ::testing::TestWithParam<EngineKind> {};

TEST_P(SessionExactness, ExactSessionsWithAmpleState) {
  const EngineKind engine = GetParam();
  // Exactness additionally needs *bounded disorder* (paper §6.1): the
  // shuffle reorders deliveries within a map wave, so a chunk's time span
  // must stay well under the 5-minute session gap — use a denser stream
  // than the multiset test's.
  ClickStreamConfig clicks;
  clicks.num_clicks = 25'000;
  clicks.num_users = 700;
  clicks.user_skew = 0.6;
  clicks.clicks_per_second = 60;
  clicks.seed = 31;
  ChunkStore input(64 << 10, 4);
  GenerateClickStream(clicks, &input);

  JobConfig cfg;
  cfg.engine = engine;
  cfg.cluster.nodes = 4;
  cfg.cluster.reduce_slots = 2;
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = 64 << 10;
  cfg.reduce_memory_bytes = 2 << 20;
  cfg.expected_keys_per_reducer = 180;
  cfg.expected_bytes_per_reducer = 1 << 20;
  cfg.collect_outputs = true;

  // Big per-user buffers: the incremental reducers keep whole sessions.
  auto r = LocalCluster::RunJob(SessionizationJob(1 << 20), cfg, input);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<Record> actual = r->outputs;
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(actual,
            ReferenceSessionization(input, kDefaultClickPayloadBytes));
}

std::string EngineName(EngineKind engine) {
  switch (engine) {
    case EngineKind::kSortMerge:
      return "SortMerge";
    case EngineKind::kMRHash:
      return "MRHash";
    case EngineKind::kIncHash:
      return "IncHash";
    case EngineKind::kDincHash:
      return "DincHash";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SessionSweep,
    ::testing::Combine(::testing::Values(EngineKind::kSortMerge,
                                         EngineKind::kMRHash,
                                         EngineKind::kIncHash,
                                         EngineKind::kDincHash),
                       ::testing::Values(uint64_t{16} << 10,
                                         uint64_t{128} << 10,
                                         uint64_t{2} << 20)),
    [](const auto& info) {
      return EngineName(std::get<0>(info.param)) + "_mem" +
             std::to_string(std::get<1>(info.param) >> 10) + "k";
    });

// DINC-hash monitors a bounded hot set (here: 2MB / 1MB-states = one
// slot); a key's clicks legitimately split between its resident spells
// and the disk buckets, so exact session ids are not part of its contract
// — ClickMultisetPreserved covers it instead.
INSTANTIATE_TEST_SUITE_P(Engines, SessionExactness,
                         ::testing::Values(EngineKind::kSortMerge,
                                           EngineKind::kMRHash,
                                           EngineKind::kIncHash),
                         [](const auto& info) {
                           return EngineName(info.param);
                         });

}  // namespace
}  // namespace onepass
