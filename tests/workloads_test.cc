// Workload tests: generator properties, encodings, and the reducer
// implementations' unit-level semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "src/util/coding.h"
#include "src/util/random.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/count_workloads.h"
#include "src/workloads/documents.h"
#include "src/workloads/reference.h"
#include "src/workloads/sessionization.h"

namespace onepass {
namespace {

// ---- click encoding ----

TEST(ClickEncodingTest, RoundTrip) {
  Click c{123456, 789, 42};
  const std::string enc = EncodeClick(c, 64);
  EXPECT_EQ(enc.size(), 64u);
  Click d;
  ASSERT_TRUE(DecodeClick(enc, &d));
  EXPECT_EQ(d.ts, c.ts);
  EXPECT_EQ(d.user, c.user);
  EXPECT_EQ(d.url, c.url);
}

TEST(ClickEncodingTest, RejectsShortData) {
  Click d;
  EXPECT_FALSE(DecodeClick("short", &d));
}

TEST(ClickEncodingTest, UserKeyOrderMatchesNumericOrder) {
  EXPECT_LT(UserKey(5), UserKey(40));
  EXPECT_LT(UserKey(99), UserKey(100));
  EXPECT_LT(UserKey(999'999), UserKey(1'000'000));
}

TEST(ClickEncodingTest, KeysNeverTruncate) {
  char buf[64];
  for (uint64_t user : std::initializer_list<uint64_t>{
           0, 1, 999'999'999, 1'000'000'000, 99'999'999'999'999,
           100'000'000'000'000, std::numeric_limits<uint64_t>::max()}) {
    std::snprintf(buf, sizeof(buf), "u%09llu",
                  static_cast<unsigned long long>(user));
    EXPECT_EQ(UserKey(user), buf);
  }
  for (uint32_t url : std::initializer_list<uint32_t>{
           0, 99'999'999, 100'000'000, std::numeric_limits<uint32_t>::max()}) {
    std::snprintf(buf, sizeof(buf), "p%08u", url);
    EXPECT_EQ(UrlKey(url), buf);
  }
  // A 16-byte snprintf buffer once cut 15-digit ids to 14 digits.
  EXPECT_NE(UserKey(100'000'000'000'000), UserKey(100'000'000'000'001));
}

TEST(SessionPayloadTest, RoundTrips) {
  uint64_t ts;
  uint32_t url;
  const std::string p = EncodeClickPayload(777, 12, 64);
  EXPECT_EQ(p.size(), 64u);
  ASSERT_TRUE(DecodeClickPayload(p, &ts, &url));
  EXPECT_EQ(ts, 777u);
  EXPECT_EQ(url, 12u);

  uint64_t session;
  const std::string o = EncodeSessionOutput(700, 777, 12, 64);
  ASSERT_TRUE(DecodeSessionOutput(o, &session, &ts, &url));
  EXPECT_EQ(session, 700u);
}

// ---- generators ----

TEST(ClickStreamTest, TimestampsAreNonDecreasing) {
  ClickStreamConfig cfg;
  cfg.num_clicks = 5'000;
  cfg.num_users = 100;
  ChunkStore input(32 << 10, 3);
  GenerateClickStream(cfg, &input);
  uint64_t prev = 0;
  for (const Chunk& chunk : input.chunks()) {
    KvBufferReader reader(chunk.records);
    std::string_view k, v;
    while (reader.Next(&k, &v)) {
      Click c;
      ASSERT_TRUE(DecodeClick(v, &c));
      EXPECT_GE(c.ts, prev);
      prev = c.ts;
      EXPECT_LT(c.user, cfg.num_users);
      EXPECT_LT(c.url, cfg.num_urls);
    }
  }
  EXPECT_EQ(input.total_records(), 5'000u);
}

TEST(ClickStreamTest, SessionBurstinessLimitsDistinctUsersPerChunk) {
  ClickStreamConfig cfg;
  cfg.num_clicks = 40'000;
  cfg.num_users = 20'000;
  cfg.active_sessions = 30;
  cfg.mean_session_clicks = 8;
  ChunkStore input(64 << 10, 4);
  GenerateClickStream(cfg, &input);
  // Each ~900-click chunk should see far fewer distinct users than
  // clicks: roughly active + churn = 30 + 900/8 ~ 140.
  for (const Chunk& chunk : input.chunks()) {
    std::set<uint64_t> users;
    KvBufferReader reader(chunk.records);
    std::string_view k, v;
    uint64_t clicks = 0;
    while (reader.Next(&k, &v)) {
      Click c;
      ASSERT_TRUE(DecodeClick(v, &c));
      users.insert(c.user);
      ++clicks;
    }
    if (clicks < 500) continue;  // final partial chunk
    EXPECT_LT(users.size(), clicks / 2);
  }
}

TEST(ClickStreamTest, PopularityFollowsSkew) {
  ClickStreamConfig cfg;
  cfg.num_clicks = 60'000;
  cfg.num_users = 10'000;
  cfg.user_skew = 1.0;
  ChunkStore input(1 << 20, 2);
  GenerateClickStream(cfg, &input);
  std::map<uint64_t, uint64_t> counts;
  for (const Chunk& chunk : input.chunks()) {
    KvBufferReader reader(chunk.records);
    std::string_view k, v;
    while (reader.Next(&k, &v)) {
      Click c;
      ASSERT_TRUE(DecodeClick(v, &c));
      ++counts[c.user];
    }
  }
  // Low ranks must dominate high ranks.
  uint64_t top100 = 0, total = 0;
  for (const auto& [u, c] : counts) {
    if (u < 100) top100 += c;
    total += c;
  }
  EXPECT_GT(top100, total / 5);
}

TEST(DocumentsTest, ShapeAndDeterminism) {
  DocumentCorpusConfig cfg;
  cfg.num_records = 500;
  cfg.words_per_record = 10;
  ChunkStore a(64 << 10, 2), b(64 << 10, 2);
  GenerateDocuments(cfg, &a);
  GenerateDocuments(cfg, &b);
  EXPECT_EQ(a.total_bytes(), b.total_bytes());
  EXPECT_EQ(a.total_records(), 500u);
  KvBufferReader reader(a.chunks()[0].records);
  std::string_view k, v;
  ASSERT_TRUE(reader.Next(&k, &v));
  // 10 words of 7 chars + 9 spaces.
  EXPECT_EQ(v.size(), 10 * 7 + 9u);
}

// ---- counting reducers ----

TEST(CountStateTest, RoundTrip) {
  uint64_t c;
  bool e;
  ASSERT_TRUE(DecodeCountState(EncodeCountState(42, true), &c, &e));
  EXPECT_EQ(c, 42u);
  EXPECT_TRUE(e);
  ASSERT_TRUE(DecodeCountState(EncodeCountState(0, false), &c, &e));
  EXPECT_EQ(c, 0u);
  EXPECT_FALSE(e);
  EXPECT_FALSE(DecodeCountState("tiny", &c, &e));
}

TEST(CountingIncReducerTest, CombineSumsAndOrsFlags) {
  CountingIncReducer red(0);
  std::string state = red.Init("k", EncodeCountState(3, false));
  red.Combine("k", &state, EncodeCountState(4, true));
  uint64_t c;
  bool e;
  ASSERT_TRUE(DecodeCountState(state, &c, &e));
  EXPECT_EQ(c, 7u);
  EXPECT_TRUE(e);
}

class VectorEmitter : public Emitter {
 public:
  void Emit(std::string_view key, std::string_view value) override {
    records.push_back(Record{std::string(key), std::string(value)});
  }
  std::vector<Record> records;
};

TEST(CountingIncReducerTest, ThresholdEmitsOnceAcrossEarlyAndFinal) {
  CountingIncReducer red(10);
  VectorEmitter out;
  std::string state = red.Init("k", EncodeCountState(6, false));
  red.OnUpdate("k", &state, &out);
  EXPECT_TRUE(out.records.empty());
  red.Combine("k", &state, EncodeCountState(5, false));
  red.OnUpdate("k", &state, &out);
  ASSERT_EQ(out.records.size(), 1u);  // crossed 10 -> emitted early
  red.Finalize("k", state, &out);
  EXPECT_EQ(out.records.size(), 1u);  // flag prevents re-emission
}

TEST(CountingIncReducerTest, NoThresholdEmitsOnlyAtFinalize) {
  CountingIncReducer red(0);
  VectorEmitter out;
  std::string state = red.Init("k", EncodeCountState(5, false));
  red.OnUpdate("k", &state, &out);
  EXPECT_TRUE(out.records.empty());
  red.Finalize("k", state, &out);
  ASSERT_EQ(out.records.size(), 1u);
  EXPECT_EQ(out.records[0].value, "5");
}

TEST(TrigramMapperTest, EmitsSlidingWindows) {
  TrigramMapper mapper;
  VectorEmitter out;
  mapper.Map("", "aa bb cc dd", &out);
  ASSERT_EQ(out.records.size(), 2u);
  EXPECT_EQ(out.records[0].key, "aa bb cc");
  EXPECT_EQ(out.records[1].key, "bb cc dd");
}

TEST(TrigramMapperTest, ShortLinesEmitNothing) {
  TrigramMapper mapper;
  VectorEmitter out;
  mapper.Map("", "one two", &out);
  mapper.Map("", "", &out);
  mapper.Map("", "solo", &out);
  EXPECT_TRUE(out.records.empty());
}

// ---- sessionization incremental reducer ----

std::string ClickState(SessionizationIncReducer* red, uint64_t ts,
                       uint32_t url) {
  return red->Init("u", EncodeClickPayload(ts, url, 64));
}

TEST(SessionizationIncReducerTest, ClosedSessionStreamsOut) {
  SessionizationIncReducer red(2048, 64);
  VectorEmitter out;
  std::string state = ClickState(&red, 100, 1);
  red.Combine("u", &state, ClickState(&red, 150, 2));
  red.OnUpdate("u", &state, &out);
  EXPECT_TRUE(out.records.empty());  // session still open

  // A click 400s later closes the first session.
  red.Combine("u", &state, ClickState(&red, 600, 3));
  red.OnUpdate("u", &state, &out);
  ASSERT_EQ(out.records.size(), 2u);  // the two old clicks
  uint64_t session, ts;
  uint32_t url;
  ASSERT_TRUE(DecodeSessionOutput(out.records[0].value, &session, &ts, &url));
  EXPECT_EQ(session, 100u);
  EXPECT_EQ(ts, 100u);
  ASSERT_TRUE(DecodeSessionOutput(out.records[1].value, &session, &ts, &url));
  EXPECT_EQ(session, 100u);
  EXPECT_EQ(ts, 150u);

  // Finalize flushes the open session.
  red.Finalize("u", state, &out);
  ASSERT_EQ(out.records.size(), 3u);
  ASSERT_TRUE(DecodeSessionOutput(out.records[2].value, &session, &ts, &url));
  EXPECT_EQ(session, 600u);
}

TEST(SessionizationIncReducerTest, OutOfOrderClicksAreReordered) {
  SessionizationIncReducer red(2048, 64);
  VectorEmitter out;
  std::string state = ClickState(&red, 200, 1);
  red.Combine("u", &state, ClickState(&red, 100, 2));  // arrives late
  red.Combine("u", &state, ClickState(&red, 150, 3));
  red.Finalize("u", state, &out);
  ASSERT_EQ(out.records.size(), 3u);
  uint64_t session, ts;
  uint32_t url;
  uint64_t prev_ts = 0;
  for (const Record& r : out.records) {
    ASSERT_TRUE(DecodeSessionOutput(r.value, &session, &ts, &url));
    EXPECT_GE(ts, prev_ts);
    EXPECT_EQ(session, 100u);  // one session, earliest click is its id
    prev_ts = ts;
  }
}

TEST(SessionizationIncReducerTest, BufferOverflowForceEmits) {
  SessionizationIncReducer red(/*state_bytes=*/4 + 3 * 64, 64);  // 3 clicks
  VectorEmitter out;
  std::string state = ClickState(&red, 100, 1);
  for (int i = 1; i < 10; ++i) {
    red.Combine("u", &state, ClickState(&red, 100 + i, 0));
    red.OnUpdate("u", &state, &out);
  }
  // All clicks are within one open session, but the buffer holds only 3;
  // the rest were force-emitted.
  EXPECT_GE(out.records.size(), 6u);
  red.Finalize("u", state, &out);
  EXPECT_EQ(out.records.size(), 10u);  // every click exactly once
}

TEST(SessionizationIncReducerTest, TryDiscardOnlyWhenExpired) {
  SessionizationIncReducer red(2048, 64);
  VectorEmitter out;
  std::string state = ClickState(&red, 100, 1);
  // Watermark is 100: session not expired.
  EXPECT_FALSE(red.TryDiscard("u", &state, &out));
  EXPECT_TRUE(out.records.empty());
  // Another user's click advances the watermark far beyond expiry.
  std::string other = ClickState(&red, 10'000, 2);
  EXPECT_TRUE(red.TryDiscard("u", &state, &out));
  ASSERT_EQ(out.records.size(), 1u);  // emitted, not spilled
  (void)other;
}

// SessionizationIncReducer's documented behaviour over a ts-sorted vector,
// sharing none of its code. A state is its clicks, or no bytes at all (a
// state TryDiscard emptied, or one never built).
class SessionOracle {
 public:
  struct Click {
    uint64_t ts;
    uint32_t url;
  };
  struct State {
    bool no_bytes = true;
    std::vector<Click> clicks;
  };

  SessionOracle(uint64_t state_bytes, size_t payload_bytes)
      : payload_bytes_(payload_bytes),
        capacity_(std::max<size_t>(2, (state_bytes - 4) / payload_bytes)) {}

  uint64_t watermark() const { return watermark_; }

  State Init(uint64_t ts, uint32_t url) {
    watermark_ = std::max(watermark_, ts);
    return State{false, {{ts, url}}};
  }

  // Upper-bound insert: a click goes after every click with ts <= its own.
  void Combine(State* state, const State& other) {
    state->no_bytes = false;
    for (const Click& c : other.clicks) {
      watermark_ = std::max(watermark_, c.ts);
      auto at = std::upper_bound(
          state->clicks.begin(), state->clicks.end(), c.ts,
          [](uint64_t ts, const Click& x) { return ts < x.ts; });
      state->clicks.insert(at, c);
    }
  }

  // Emits every session closed by a gap of more than kSessionGapSeconds,
  // plus the oldest clicks of the open one beyond the buffer's capacity.
  void OnUpdate(State* state, std::vector<Record>* out) const {
    const std::vector<Click>& c = state->clicks;
    size_t open_start = 0;
    for (size_t i = 1; i < c.size(); ++i) {
      if (c[i].ts > c[i - 1].ts + kSessionGapSeconds) open_start = i;
    }
    size_t emit = open_start;
    if (c.size() - emit > capacity_) emit = c.size() - capacity_;
    EmitPrefix(state, emit, out);
  }

  void Finalize(const State& state, std::vector<Record>* out) const {
    State copy = state;
    EmitPrefix(&copy, copy.clicks.size(), out);
  }

  bool TryDiscard(State* state, std::vector<Record>* out) const {
    if (state->clicks.empty()) return true;
    if (state->clicks.back().ts + kSessionGapSeconds >= watermark_) {
      return false;
    }
    EmitPrefix(state, state->clicks.size(), out);
    state->no_bytes = true;
    return true;
  }

  // [count: fixed32] then per click [ts: fixed64][url: fixed32] + 'x'
  // padding to payload_bytes.
  std::string Bytes(const State& state) const {
    std::string b;
    if (state.no_bytes) return b;
    PutFixed32(&b, static_cast<uint32_t>(state.clicks.size()));
    for (const Click& c : state.clicks) {
      PutFixed64(&b, c.ts);
      PutFixed32(&b, c.url);
      b.append(payload_bytes_ - 12, 'x');
    }
    return b;
  }

 private:
  // Emits and drops the first n clicks; a session id is the ts of the
  // session's first click, and the first emitted click opens a session.
  void EmitPrefix(State* state, size_t n, std::vector<Record>* out) const {
    uint64_t session = 0;
    for (size_t i = 0; i < n; ++i) {
      const Click& c = state->clicks[i];
      if (i == 0 || c.ts > state->clicks[i - 1].ts + kSessionGapSeconds) {
        session = c.ts;
      }
      std::string v;
      PutFixed64(&v, session);
      PutFixed64(&v, c.ts);
      PutFixed32(&v, c.url);
      if (v.size() < payload_bytes_) v.resize(payload_bytes_, 'x');
      out->push_back(Record{"u", v});
    }
    state->clicks.erase(state->clicks.begin(),
                        state->clicks.begin() + static_cast<ptrdiff_t>(n));
  }

  size_t payload_bytes_;
  size_t capacity_;
  uint64_t watermark_ = 0;
};

TEST(SessionizationIncReducerTest, InPlaceMatchesSpecOracle) {
  Xoshiro256StarStar rng(2011);
  for (size_t payload : {12, 64, 100}) {
    for (uint64_t state_bytes : {uint64_t{4 + 2 * payload}, uint64_t{512},
                                 uint64_t{1} << 20}) {
      SCOPED_TRACE("payload " + std::to_string(payload) + ", buffer " +
                   std::to_string(state_bytes));
      SessionizationIncReducer red(state_bytes, payload);
      SessionOracle oracle(state_bytes, payload);
      VectorEmitter out;
      std::vector<Record> want;
      // A few states (engine slots) with their own clocks; each starts as
      // an empty string.
      constexpr int kSlots = 4;
      std::vector<std::string> states(kSlots);
      std::vector<SessionOracle::State> model(kSlots);
      std::vector<uint64_t> clock(kSlots, 10'000);
      uint32_t url = 0;
      // The next click of slot k: equal timestamps, small steps, gaps of
      // exactly kSessionGapSeconds and one second more, long gaps (which
      // expire a slot against the others' watermark) and late clicks.
      auto next_ts = [&](int k) {
        const uint64_t r = rng.NextBounded(10);
        if (r < 2) return clock[k];
        if (r < 5) return clock[k] += 1 + rng.NextBounded(60);
        if (r < 6) return clock[k] += kSessionGapSeconds;
        if (r < 7) return clock[k] += kSessionGapSeconds + 1;
        if (r < 8) return clock[k] += 5'000;
        return clock[k] - rng.NextBounded(2 * kSessionGapSeconds);
      };
      auto init = [&](int k, std::string* state,
                      SessionOracle::State* m) {
        const uint64_t ts = next_ts(k);
        *state = red.Init("u", EncodeClickPayload(ts, ++url, payload));
        *m = oracle.Init(ts, url);
      };
      for (int step = 0; step < 3'000; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const int k = static_cast<int>(rng.NextBounded(kSlots));
        const uint64_t op = rng.NextBounded(20);
        if (op < 2) {
          init(k, &states[k], &model[k]);
        } else if (op < 9) {  // the common case: one fresh click
          std::string click;
          SessionOracle::State m;
          init(k, &click, &m);
          red.Combine("u", &states[k], click);
          oracle.Combine(&model[k], m);
        } else if (op < 11) {  // a multi-click (or empty) other state
          const int j =
              (k + 1 + static_cast<int>(rng.NextBounded(kSlots - 1))) %
              kSlots;
          red.Combine("u", &states[k], states[j]);
          oracle.Combine(&model[k], model[j]);
        } else if (op < 16) {
          red.OnUpdate("u", &states[k], &out);
          oracle.OnUpdate(&model[k], &want);
        } else if (op < 17) {
          red.Finalize("u", states[k], &out);
          oracle.Finalize(model[k], &want);
        } else if (op < 19) {
          ASSERT_EQ(red.TryDiscard("u", &states[k], &out),
                    oracle.TryDiscard(&model[k], &want));
        } else {
          states[k].clear();
          model[k] = SessionOracle::State{};
        }
        ASSERT_EQ(states[k], oracle.Bytes(model[k]));
        ASSERT_EQ(red.watermark(), oracle.watermark());
        ASSERT_EQ(out.records, want);
        out.records.clear();
        want.clear();
      }
    }
  }
}

TEST(SessionizationListReducerTest, MatchesIncrementalSemantics) {
  // The values-list reducer and the incremental reducer agree on a
  // scrambled click set.
  std::vector<uint64_t> times = {500, 100, 130, 900, 120, 910};
  SessionizationReducer list_red(64);
  class VecIter : public ValueIterator {
   public:
    explicit VecIter(std::vector<std::string>* v) : v_(v) {}
    bool Next(std::string_view* value) override {
      if (i_ >= v_->size()) return false;
      *value = (*v_)[i_++];
      return true;
    }

   private:
    std::vector<std::string>* v_;
    size_t i_ = 0;
  };
  std::vector<std::string> values;
  for (uint64_t t : times) {
    values.push_back(EncodeClickPayload(t, 0, 64));
  }
  VectorEmitter list_out;
  VecIter it(&values);
  list_red.Reduce("u", &it, &list_out);

  SessionizationIncReducer inc_red(1 << 16, 64);
  VectorEmitter inc_out;
  std::string state = inc_red.Init("u", values[0]);
  for (size_t i = 1; i < values.size(); ++i) {
    inc_red.Combine("u", &state, inc_red.Init("u", values[i]));
  }
  inc_red.Finalize("u", state, &inc_out);

  auto sorted = [](std::vector<Record> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(list_out.records), sorted(inc_out.records));
}

// ---- reference implementations ----

TEST(ReferenceTest, SessionizationCountsEveryClickOnce) {
  ClickStreamConfig cfg;
  cfg.num_clicks = 2'000;
  cfg.num_users = 50;
  ChunkStore input(32 << 10, 2);
  GenerateClickStream(cfg, &input);
  const auto out = ReferenceSessionization(input, 64);
  EXPECT_EQ(out.size(), 2'000u);
  const auto counts = ReferenceClickCounts(input, ClickKeyField::kUser);
  uint64_t total = 0;
  for (const auto& [k, c] : counts) total += c;
  EXPECT_EQ(total, 2'000u);
}

TEST(ReferenceTest, TrigramCountsMatchManualLine) {
  ChunkStore input(1 << 20, 1);
  input.Append("", "a b a b a");
  input.Seal();
  const auto counts = ReferenceTrigramCounts(input);
  EXPECT_EQ(counts.at("a b a"), 2u);
  EXPECT_EQ(counts.at("b a b"), 1u);
  EXPECT_EQ(counts.size(), 2u);
}

}  // namespace
}  // namespace onepass
