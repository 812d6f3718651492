// Engine-equivalence property test: a seeded generator produces random
// workloads — Zipf key skew, varying value sizes, memory budgets that
// force spilling and recursive partitioning, and hot-key churn that makes
// DINC's FREQUENT monitor chase a moving hot set — and every generated
// case must group identically under all four engines (SM, MR-hash,
// INC-hash, DINC-hash) and match the directly computed reference.
//
// This is the paper's central claim (§4: the hash engines change *cost*,
// never *answers*) swept across ≥ 50 machine-generated corners instead of
// a handful of hand-picked ones.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/util/random.h"
#include "tests/engine_test_util.h"

namespace onepass {
namespace {

// Value / state wire format: "<decimal count>:<padding>". Padding inflates
// state sizes (stressing memory budgets) but never reaches the output;
// counts fold commutatively, so every grouping order yields the same sum.
uint64_t ParseCount(std::string_view v) {
  uint64_t c = 0;
  for (char ch : v) {
    if (ch == ':') break;
    c = c * 10 + static_cast<uint64_t>(ch - '0');
  }
  return c;
}

std::string_view PaddingOf(std::string_view v) {
  const size_t colon = v.find(':');
  return colon == std::string_view::npos ? std::string_view()
                                         : v.substr(colon + 1);
}

class PaddedSumIncReducer : public IncrementalReducer {
 public:
  std::string Init(std::string_view, std::string_view value) override {
    return std::string(value);
  }
  void Combine(std::string_view, std::string* state,
               std::string_view other) override {
    const uint64_t sum = ParseCount(*state) + ParseCount(other);
    // Keep the longer padding (ties: lexicographically larger): a
    // commutative, associative choice, so engines that fold states in
    // different orders still agree byte-for-byte.
    const std::string_view pa = PaddingOf(*state);
    const std::string_view pb = PaddingOf(other);
    std::string_view keep = pa;
    if (pb.size() > pa.size() || (pb.size() == pa.size() && pb > pa)) {
      keep = pb;
    }
    std::string next = std::to_string(sum);
    next += ':';
    next.append(keep.data(), keep.size());
    *state = std::move(next);
  }
  void Finalize(std::string_view key, std::string_view state,
                Emitter* out) override {
    out->Emit(key, std::to_string(ParseCount(state)));
  }
  uint64_t StateBytesHint() const override { return 32; }
};

class PaddedSumListReducer : public Reducer {
 public:
  void Reduce(std::string_view key, ValueIterator* values,
              Emitter* out) override {
    uint64_t sum = 0;
    std::string_view v;
    while (values->Next(&v)) sum += ParseCount(v);
    out->Emit(key, std::to_string(sum));
  }
};

struct GeneratedCase {
  std::vector<KvBuffer> segments;         // raw (hash-engine) deliveries
  std::vector<KvBuffer> sorted_segments;  // key-ordered (SM) deliveries
  std::map<std::string, uint64_t> reference;
  uint64_t reduce_memory = 0;
  uint64_t page_bytes = 0;
  int merge_factor = 0;
  uint64_t expected_keys = 0;
  uint64_t expected_bytes = 0;
  std::string description;
};

GeneratedCase Generate(uint64_t case_seed) {
  Xoshiro256StarStar rng = PerTaskRng(0xE9E9, case_seed);
  GeneratedCase c;

  const uint64_t universe = 50 + rng.NextBounded(2950);
  const uint64_t records = 2000 + rng.NextBounded(10000);
  const double skew = 1.5 * rng.NextDouble();
  const uint64_t max_padding = rng.NextBounded(64);
  const uint64_t num_segments = 3 + rng.NextBounded(17);
  // Hot-key churn: halfway through, rotate the rank->key mapping so the
  // popular ranks land on different keys (DINC must demote and promote).
  const uint64_t churn_shift = rng.NextBounded(universe);

  constexpr uint64_t kMemory[] = {2 << 10, 8 << 10, 64 << 10, 1 << 20};
  constexpr uint64_t kPages[] = {256, 1 << 10, 4 << 10};
  constexpr int kFactors[] = {2, 3, 8};
  c.reduce_memory = kMemory[rng.NextBounded(4)];
  c.page_bytes = kPages[rng.NextBounded(3)];
  c.merge_factor = kFactors[rng.NextBounded(3)];
  c.expected_keys = rng.NextBool(0.5) ? universe / 2 : 0;
  c.expected_bytes = rng.NextBool(0.5) ? (64 << 10) : 0;

  ZipfGenerator zipf(universe, skew);
  std::vector<std::vector<std::pair<std::string, std::string>>> pairs(
      num_segments);
  for (uint64_t i = 0; i < records; ++i) {
    const uint64_t rank = zipf.Next(&rng);
    const uint64_t id = i < records / 2 ? rank
                                        : (rank + churn_shift) % universe;
    std::string key = "k" + std::to_string(id);
    const uint64_t count = 1 + rng.NextBounded(5);
    std::string value = std::to_string(count);
    value += ':';
    value.append(static_cast<size_t>(rng.NextBounded(max_padding + 1)),
                 'p');
    c.reference[key] += count;
    pairs[rng.NextBounded(num_segments)].emplace_back(std::move(key),
                                                      std::move(value));
  }
  for (auto& seg : pairs) {
    c.sorted_segments.push_back(MakeSegment(seg, /*sorted=*/true));
    c.segments.push_back(MakeSegment(std::move(seg), /*sorted=*/false));
  }
  c.description = "universe=" + std::to_string(universe) +
                  " records=" + std::to_string(records) +
                  " skew=" + std::to_string(skew) +
                  " pad<=" + std::to_string(max_padding) +
                  " segments=" + std::to_string(num_segments) +
                  " mem=" + std::to_string(c.reduce_memory) +
                  " page=" + std::to_string(c.page_bytes) +
                  " F=" + std::to_string(c.merge_factor);
  return c;
}

std::map<std::string, uint64_t> RunEngine(const GeneratedCase& c,
                                          EngineKind kind) {
  EngineHarness h;
  h.config.reduce_memory_bytes = c.reduce_memory;
  h.config.bucket_page_bytes = c.page_bytes;
  h.config.merge_factor = c.merge_factor;
  h.config.expected_keys_per_reducer = c.expected_keys;
  h.config.expected_bytes_per_reducer = c.expected_bytes;
  const bool incremental =
      kind == EngineKind::kIncHash || kind == EngineKind::kDincHash;
  if (incremental) {
    // Init is the identity, so the padded values are already states.
    h.inc = std::make_unique<PaddedSumIncReducer>();
  } else {
    h.reducer = std::make_unique<PaddedSumListReducer>();
  }
  EXPECT_TRUE(h.Init(kind, /*values_are_states=*/incremental).ok());
  const bool sorted = kind == EngineKind::kSortMerge;
  const std::vector<KvBuffer>& segments =
      sorted ? c.sorted_segments : c.segments;
  for (const KvBuffer& seg : segments) {
    EXPECT_TRUE(h.Consume(seg, sorted).ok());
  }
  EXPECT_TRUE(h.Finish().ok());
  std::map<std::string, uint64_t> got;
  for (const Record& r : h.outputs) {
    EXPECT_EQ(got.count(r.key), 0u)
        << EngineKindName(kind) << " emitted duplicate key " << r.key;
    got[r.key] = std::stoull(r.value);
  }
  return got;
}

TEST(EngineEquivalenceProperty, FiftyRandomWorkloadsGroupIdentically) {
  constexpr int kCases = 56;
  for (int i = 0; i < kCases; ++i) {
    const GeneratedCase c = Generate(static_cast<uint64_t>(i));
    SCOPED_TRACE("case " + std::to_string(i) + ": " + c.description);
    const auto sm = RunEngine(c, EngineKind::kSortMerge);
    EXPECT_EQ(sm, c.reference) << "sort-merge diverges from reference";
    const auto mr = RunEngine(c, EngineKind::kMRHash);
    EXPECT_EQ(mr, c.reference) << "MR-hash diverges from reference";
    const auto inc = RunEngine(c, EngineKind::kIncHash);
    EXPECT_EQ(inc, c.reference) << "INC-hash diverges from reference";
    const auto dinc = RunEngine(c, EngineKind::kDincHash);
    EXPECT_EQ(dinc, c.reference) << "DINC-hash diverges from reference";
  }
}

}  // namespace
}  // namespace onepass
