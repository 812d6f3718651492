// Unit tests for INC-hash (§4.2).

#include "src/engine/inc_hash_engine.h"

#include <gtest/gtest.h>

#include <map>

#include "src/workloads/count_workloads.h"
#include "tests/engine_test_util.h"

namespace onepass {
namespace {

std::map<std::string, uint64_t> Got(const std::vector<Record>& outputs) {
  std::map<std::string, uint64_t> m;
  for (const Record& r : outputs) m[r.key] = std::stoull(r.value);
  return m;
}

KvBuffer CountSegment(
    const std::vector<std::pair<std::string, uint64_t>>& pairs) {
  KvBuffer buf;
  for (const auto& [k, c] : pairs) buf.Append(k, EncodeCountState(c, false));
  return buf;
}

TEST(IncHashEngineTest, CombinesInMemory) {
  EngineHarness h;
  h.inc = std::make_unique<CountingIncReducer>(0);
  h.config.expected_keys_per_reducer = 16;
  ASSERT_TRUE(h.Init(EngineKind::kIncHash, true).ok());
  ASSERT_TRUE(h.Consume(CountSegment({{"a", 1}, {"b", 2}})).ok());
  ASSERT_TRUE(h.Consume(CountSegment({{"a", 5}, {"c", 1}})).ok());
  ASSERT_TRUE(h.Finish().ok());
  const auto got = Got(h.outputs);
  EXPECT_EQ(got.at("a"), 6u);
  EXPECT_EQ(got.at("b"), 2u);
  EXPECT_EQ(got.at("c"), 1u);
  EXPECT_EQ(h.metrics.reduce_spill_write_bytes, 0u);
  // I/O completely eliminated when all states fit (§4.2).
  EXPECT_EQ(h.metrics.reduce_spill_read_bytes, 0u);
}

TEST(IncHashEngineTest, OverflowKeysSpillButStayExact) {
  EngineHarness h;
  h.inc = std::make_unique<CountingIncReducer>(0);
  h.config.reduce_memory_bytes = 2 << 10;  // a handful of resident keys
  h.config.bucket_page_bytes = 256;
  h.config.expected_keys_per_reducer = 500;
  ASSERT_TRUE(h.Init(EngineKind::kIncHash, true).ok());

  std::map<std::string, uint64_t> expected;
  for (int seg = 0; seg < 60; ++seg) {
    std::vector<std::pair<std::string, uint64_t>> pairs;
    for (int i = 0; i < 10; ++i) {
      const std::string key = "k" + std::to_string((seg * 10 + i) % 311);
      pairs.emplace_back(key, 1);
      expected[key] += 1;
    }
    ASSERT_TRUE(h.Consume(CountSegment(pairs)).ok());
  }
  ASSERT_TRUE(h.Finish().ok());
  EXPECT_GT(h.metrics.reduce_spill_write_bytes, 0u);
  EXPECT_EQ(Got(h.outputs), expected);
}

TEST(IncHashEngineTest, ResidentTuplesNeverTouchDisk) {
  // A key inserted while memory is free keeps absorbing tuples without
  // any I/O — the core INC-hash improvement over MR-hash.
  EngineHarness h;
  h.inc = std::make_unique<CountingIncReducer>(0);
  h.config.reduce_memory_bytes = 64 << 10;
  h.config.expected_keys_per_reducer = 4;
  ASSERT_TRUE(h.Init(EngineKind::kIncHash, true).ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(h.Consume(CountSegment({{"hot", 1}})).ok());
  }
  ASSERT_TRUE(h.Finish().ok());
  EXPECT_EQ(h.metrics.reduce_spill_write_bytes, 0u);
  EXPECT_EQ(Got(h.outputs).at("hot"), 1000u);
  EXPECT_EQ(h.metrics.combine_invocations, 1000u);
}

TEST(IncHashEngineTest, EarlyOutputViaThreshold) {
  // Frequent-key identification: the answer appears during Consume, not
  // at Finish — the paper's Fig. 7(c) behaviour.
  EngineHarness h;
  h.inc = std::make_unique<CountingIncReducer>(5);
  h.config.expected_keys_per_reducer = 16;
  ASSERT_TRUE(h.Init(EngineKind::kIncHash, true).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(h.Consume(CountSegment({{"k", 1}})).ok());
    EXPECT_TRUE(h.outputs.empty());
  }
  ASSERT_TRUE(h.Consume(CountSegment({{"k", 1}})).ok());
  ASSERT_EQ(h.outputs.size(), 1u);  // emitted the moment count hit 5
  EXPECT_EQ(h.outputs[0].key, "k");
  EXPECT_EQ(h.metrics.early_output_records, 1u);
  ASSERT_TRUE(h.Finish().ok());
  EXPECT_EQ(h.outputs.size(), 1u);  // not emitted again at finalize
}

TEST(IncHashEngineTest, RawValuesAreRejected) {
  // INC and DINC consume states (init runs map-side): a caller that would
  // hand them raw values gets InvalidArgument, not a wrong answer.
  for (const EngineKind kind : {EngineKind::kIncHash, EngineKind::kDincHash}) {
    EngineHarness h;
    h.inc = std::make_unique<CountingIncReducer>(0);
    EXPECT_TRUE(h.Init(kind, /*values_are_states=*/false).IsInvalidArgument())
        << EngineKindName(kind);
    EXPECT_TRUE(h.Init(kind, /*values_are_states=*/true).ok())
        << EngineKindName(kind);
  }
}

TEST(IncHashEngineTest, RequiresIncrementalReducer) {
  EngineHarness h;
  EXPECT_TRUE(
      h.Init(EngineKind::kIncHash, true).IsInvalidArgument());
}

TEST(IncHashChooseBucketsTest, MoreKeysMoreBuckets) {
  const uint64_t mem = 64 << 10;
  const int h1 = IncHashEngine::ChooseNumBuckets(100, mem, 64, 4 << 10);
  const int h2 = IncHashEngine::ChooseNumBuckets(100'000, mem, 64, 4 << 10);
  EXPECT_GE(h2, h1);
  EXPECT_GE(h1, 1);
}

TEST(IncHashChooseBucketsTest, BucketKeysFitMemoryWhenFeasible) {
  const uint64_t mem = 64 << 10;
  const uint64_t entry = 64;
  for (uint64_t keys : {100ull, 10'000ull, 25'000ull}) {
    const int h = IncHashEngine::ChooseNumBuckets(keys, mem, entry, 4 << 10);
    const uint64_t page = IncHashEngine::ClampedPageBytes(4 << 10, mem, h);
    const uint64_t capacity = (mem - h * page) / entry;
    EXPECT_LE(keys / h, capacity * 1.001) << keys;
  }
}

TEST(IncHashChooseBucketsTest, InfeasibleKeySpaceFallsBack) {
  // Too many keys for one pass: returns the most buckets that still
  // leave room for states (recursion handles oversized buckets).
  const int h =
      IncHashEngine::ChooseNumBuckets(100'000'000, 64 << 10, 64, 4 << 10);
  EXPECT_GE(h, 1);
  const uint64_t page = IncHashEngine::ClampedPageBytes(4 << 10, 64 << 10, h);
  EXPECT_LT(page * static_cast<uint64_t>(h), 64u << 10);
}

TEST(IncHashClampedPageTest, NeverMoreThanHalfMemory) {
  for (int h : {1, 2, 8, 64, 1024}) {
    const uint64_t page =
        IncHashEngine::ClampedPageBytes(16 << 10, 64 << 10, h);
    EXPECT_LE(page * static_cast<uint64_t>(h),
              std::max<uint64_t>(32 << 10, 512 * h));
    EXPECT_GE(page, 512u);
  }
}

}  // namespace
}  // namespace onepass
