// Unit tests for DINC-hash (§4.3): FREQUENT-monitored hot keys, the
// eviction hook, exact-mode state flushing, and coverage-based
// approximate early termination.

#include "src/engine/dinc_hash_engine.h"

#include <gtest/gtest.h>

#include <map>

#include "src/util/random.h"
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

TEST(DincHashEngineTest, ExactCountsUnderPressure) {
  // Key space far exceeds the monitored slots; exact mode must still
  // produce exact counts (resident states flush into buckets and merge
  // with earlier spills).
  EngineHarness h;
  h.inc = std::make_unique<CountingIncReducer>(0);
  h.config.reduce_memory_bytes = 2 << 10;
  h.config.bucket_page_bytes = 256;
  h.config.expected_keys_per_reducer = 400;
  ASSERT_TRUE(h.Init(EngineKind::kDincHash, true).ok());

  Xoshiro256StarStar rng(5);
  ZipfGenerator zipf(400, 1.0);
  std::map<std::string, uint64_t> expected;
  for (int seg = 0; seg < 80; ++seg) {
    std::vector<std::pair<std::string, uint64_t>> pairs;
    for (int i = 0; i < 20; ++i) {
      const std::string key = "k" + std::to_string(zipf.Next(&rng));
      pairs.emplace_back(key, 1);
      expected[key] += 1;
    }
    ASSERT_TRUE(h.Consume(CountSegment(pairs)).ok());
  }
  ASSERT_TRUE(h.Finish().ok());
  EXPECT_EQ(Got(h.outputs), expected);
}

TEST(DincHashEngineTest, HotKeysAbsorbedInMemory) {
  // With one overwhelmingly hot key, nearly all of its tuples must be
  // combined in memory (the FREQUENT guarantee), so spill stays small.
  EngineHarness h;
  h.inc = std::make_unique<CountingIncReducer>(0);
  h.config.reduce_memory_bytes = 4 << 10;
  h.config.bucket_page_bytes = 512;
  h.config.expected_keys_per_reducer = 100;
  ASSERT_TRUE(h.Init(EngineKind::kDincHash, true).ok());

  uint64_t hot_tuples = 0;
  for (int seg = 0; seg < 100; ++seg) {
    std::vector<std::pair<std::string, uint64_t>> pairs;
    for (int i = 0; i < 8; ++i) {
      pairs.emplace_back("hot", 1);
      ++hot_tuples;
    }
    pairs.emplace_back("cold" + std::to_string(seg), 1);
    ASSERT_TRUE(h.Consume(CountSegment(pairs)).ok());
  }
  ASSERT_TRUE(h.Finish().ok());
  const auto got = Got(h.outputs);
  EXPECT_EQ(got.at("hot"), hot_tuples);
  // The hot key's tuples never spill: spilled records are only the colds
  // plus flushed states.
  EXPECT_LT(h.metrics.reduce_spill_write_bytes,
            hot_tuples * RecordBytes("hot", EncodeCountState(1, false)) / 4);
}

// An incremental reducer whose states can always be discarded: mimics a
// workload (like sessionization with expired sessions) whose eviction
// hook emits instead of spilling.
class DiscardableCounter : public CountingIncReducer {
 public:
  DiscardableCounter() : CountingIncReducer(0) {}
  bool TryDiscard(std::string_view key, std::string* state,
                  Emitter* out) override {
    uint64_t c = 0;
    bool e = false;
    DecodeCountState(*state, &c, &e);
    out->Emit(key, std::to_string(c));
    ++discards_;
    return true;
  }
  bool FlushResidentStatesAtEnd() const override { return false; }
  int discards() const { return discards_; }

 private:
  int discards_ = 0;
};

TEST(DincHashEngineTest, EvictionHookPreventsSpills) {
  EngineHarness h;
  auto counter = std::make_unique<DiscardableCounter>();
  DiscardableCounter* counter_ptr = counter.get();
  h.inc = std::move(counter);
  h.config.reduce_memory_bytes = 2 << 10;
  h.config.bucket_page_bytes = 256;
  h.config.expected_keys_per_reducer = 1000;
  ASSERT_TRUE(h.Init(EngineKind::kDincHash, true).ok());

  // A pure churn stream: every key unique. With the hook, evictions all
  // discard; spill stays zero.
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(
        h.Consume(CountSegment({{"u" + std::to_string(i), 1}})).ok());
  }
  ASSERT_TRUE(h.Finish().ok());
  EXPECT_EQ(h.metrics.reduce_spill_write_bytes, 0u);
  EXPECT_GT(counter_ptr->discards(), 0);
  // Every key's count must still be output exactly once.
  EXPECT_EQ(h.outputs.size(), 3000u);
}

TEST(DincHashEngineTest, ApproximateModeSkipsBuckets) {
  EngineHarness h;
  h.inc = std::make_unique<CountingIncReducer>(0);
  h.config.reduce_memory_bytes = 2 << 10;
  h.config.bucket_page_bytes = 256;
  h.config.expected_keys_per_reducer = 500;
  h.config.dinc_coverage_threshold = 0.8;
  ASSERT_TRUE(h.Init(EngineKind::kDincHash, true).ok());

  // One dominant key plus cold churn.
  std::vector<std::pair<std::string, uint64_t>> pairs;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(h.Consume(CountSegment({{"dominant", 1}})).ok());
    if (i % 3 == 0) {
      ASSERT_TRUE(
          h.Consume(CountSegment({{"c" + std::to_string(i), 1}})).ok());
    }
  }
  const uint64_t spilled_before_finish = h.metrics.reduce_spill_read_bytes;
  ASSERT_TRUE(h.Finish().ok());
  // No bucket was read back: early termination.
  EXPECT_EQ(h.metrics.reduce_spill_read_bytes, spilled_before_finish);
  // The dominant key is returned with nearly its full count.
  const auto got = Got(h.outputs);
  ASSERT_TRUE(got.count("dominant"));
  EXPECT_GE(got.at("dominant"), 1600u);  // >= 80% coverage guaranteed
  EXPECT_LE(got.at("dominant"), 2000u);
  // Covered-keys accounting is exposed via metrics/groups.
  EXPECT_GE(h.metrics.reduce_groups, 1u);
}

TEST(DincHashEngineTest, RequiresIncrementalReducer) {
  EngineHarness h;
  EXPECT_TRUE(
      h.Init(EngineKind::kDincHash, true).IsInvalidArgument());
}

TEST(DincHashEngineTest, SingleSlotDegeneratesGracefully) {
  EngineHarness h;
  h.inc = std::make_unique<CountingIncReducer>(0);
  // 600 bytes hold one 512-byte bucket page and one 64-byte entry (a
  // 16-byte state hint, a 16-byte key estimate, kResidentEntryOverhead):
  // one slot.
  h.config.reduce_memory_bytes = 600;
  h.config.expected_keys_per_reducer = 50;
  ASSERT_TRUE(h.Init(EngineKind::kDincHash, true).ok());
  std::map<std::string, uint64_t> expected;
  for (int i = 0; i < 500; ++i) {
    const std::string key = "k" + std::to_string(i % 7);
    ASSERT_TRUE(h.Consume(CountSegment({{key, 1}})).ok());
    expected[key] += 1;
  }
  ASSERT_TRUE(h.Finish().ok());
  EXPECT_EQ(Got(h.outputs), expected);
}

}  // namespace
}  // namespace onepass
