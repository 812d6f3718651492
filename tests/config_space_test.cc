// Config-space harness: the paper's central claim (§4: the engines change
// cost, never answers), checked across every optional tier at once. A
// seeded generator draws (workload, JobConfig, fault plan) triples from
// the space ValidateJob accepts: engine, map-side combine, memory, merge
// factor, page size and estimates, cluster shape, codec, SIMD tier,
// threads, shuffle mode, combine scope and budget, sort-merge pipelining
// and snapshots, checkpoints, and crash, straggler, speculation,
// transient and corruption plans. Each draw checks four oracles against
// a baseline run at one thread on the scalar SIMD tier (a draw there is
// its own baseline):
//   1. the answer equals the workload's reference (src/workloads/reference.*);
//   2. the full Fingerprint is byte-identical at the drawn threads and tier;
//   3. the answer is unchanged with codec, shuffle mode, combine scope and
//      checkpoints reset to their defaults (byte-identical when only the
//      shuffle mode and checkpoints, which leave the data plane alone,
//      were reset), and each tier's counters are engaged exactly when on;
//   4. Definition-1 map and reduce progress never decrease and end at 100%
//      (an empty answer or a silent map included).
// A plan that loses every replica of a chunk must instead end in
// ResourceExhausted, the same at every thread count and tier.
//
// Each draw is a ctest case named by its index (ConfigSpace.Draw/<i>);
// every failure prints the draw's config on one line. Draws are a pure
// function of their index: a tier the host lacks runs as the best tier
// it has. The case names of the suites this harness replaced stay, as
// pinned draws on their inputs and configs (at one thread on the scalar
// tier unless a case pinned its threads or tiers), and the engine
// property sweep runs its 56 padded-sum cases on every engine.
// dinc_coverage_threshold is outside the space: its answers are
// approximate by design.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "src/mr/cluster.h"
#include "src/util/random.h"
#include "src/util/simd_dispatch.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/count_workloads.h"
#include "src/workloads/documents.h"
#include "src/workloads/jobs.h"
#include "src/workloads/reference.h"
#include "tests/test_fingerprint.h"

namespace onepass {
namespace {

constexpr uint64_t kSpaceSeed = 0xC0F1'6A5E;
constexpr int kDraws = 48;

// ---- workloads ----

enum class Workload : uint8_t {
  kClicks,         // clicks per user
  kPages,          // visits per url
  kFrequentUsers,  // users with >= threshold clicks (early output)
  kTwicePerClick,  // two records per click: outgrows the reservation
  kSilentMap,      // a map that emits nothing: the empty answer
  kPaddedSums,     // Zipf sums, padded states, hot-key churn
  kTrigrams,       // trigrams seen >= threshold times
  kSessions,       // sessionization, sparse stream: the click multiset
  kExactSessions,  // dense stream, ample state: exact sessions
};
constexpr int kWorkloads = 9;
constexpr const char* kWorkloadNames[kWorkloads] = {
    "clicks", "pages",    "frequent_users", "twice_per_click", "silent",
    "padded", "trigrams", "sessions",       "exact_sessions"};

bool IsSessions(Workload w) {
  return w == Workload::kSessions || w == Workload::kExactSessions;
}

bool IsThreshold(Workload w) {
  return w == Workload::kFrequentUsers || w == Workload::kTrigrams;
}

void EmitTwicePerClick(std::string_view user, uint64_t clicks, Emitter* out) {
  for (uint64_t i = 0; i < clicks; ++i) {
    out->Emit(user, "x");
    out->Emit(user, "y");
  }
}

class TwicePerClickReducer : public Reducer {
 public:
  void Reduce(std::string_view key, ValueIterator* values,
              Emitter* out) override {
    uint64_t clicks = 0, c = 0;
    bool emitted = false;
    std::string_view v;
    while (values->Next(&v)) {
      if (DecodeCountState(v, &c, &emitted)) clicks += c;
    }
    EmitTwicePerClick(key, clicks, out);
  }
};

class TwicePerClickIncReducer : public CountingIncReducer {
 public:
  void Finalize(std::string_view key, std::string_view state,
                Emitter* out) override {
    uint64_t clicks = 0;
    bool emitted = false;
    if (DecodeCountState(state, &clicks, &emitted)) {
      EmitTwicePerClick(key, clicks, out);
    }
  }
};

// Emits every input record as it is, or (silent) nothing.
class EchoMapper : public Mapper {
 public:
  explicit EchoMapper(bool silent) : silent_(silent) {}
  void Map(std::string_view key, std::string_view value,
           Emitter* out) override {
    if (!silent_) out->Emit(key, value);
  }

 private:
  bool silent_;
};

// Padded-sum values and states are "<decimal count>:<padding>". Padding
// inflates states (pressing on every memory budget) but never reaches the
// answer; keeping the longer padding (ties: the larger) is commutative and
// associative, so every fold order yields the same bytes.
uint64_t ParseCount(std::string_view v) {
  uint64_t c = 0;
  for (char ch : v.substr(0, v.find(':'))) c = c * 10 + (ch - '0');
  return c;
}

class PaddedSumIncReducer : public IncrementalReducer {
 public:
  std::string Init(std::string_view, std::string_view value) override {
    return std::string(value);
  }
  void Combine(std::string_view, std::string* state,
               std::string_view other) override {
    auto padding = [](std::string_view v) {
      const size_t colon = v.find(':');
      return colon == v.npos ? std::string_view() : v.substr(colon + 1);
    };
    const std::string_view pa = padding(*state), pb = padding(other);
    const bool b = pb.size() > pa.size() || (pb.size() == pa.size() && pb > pa);
    *state = std::to_string(ParseCount(*state) + ParseCount(other)) + ":" +
             std::string(b ? pb : pa);
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

// ---- the draw ----

enum FaultKind { kNoFault, kCrash, kStraggler, kTransient, kCorrupt, kMixed,
                 kLostReplicas, kFaultKinds };
constexpr const char* kFaultNames[kFaultKinds] = {
    "none", "crash", "straggler", "transient", "corrupt", "mixed",
    "lost_replicas"};

// One draw's input: clicks for the click workloads, documents for
// trigrams, "k<id>" -> "<count>:<padding>" records for padded sums.
struct Input {
  uint64_t records = 0;
  uint64_t keys = 0;  // users, vocabulary or key universe
  uint32_t urls = 5'000;
  double skew = 0;
  uint64_t seed = 0;
  size_t record_bytes = 64;
  double clicks_per_second = 1000;
  bool operator==(const Input&) const = default;
};

struct Draw {
  std::string name;
  Workload workload = Workload::kClicks;
  uint64_t threshold = 10;  // frequent users and trigrams
  Input input;
  JobConfig cfg;
  SimdTier tier = SimdTier::kScalar;
  // Further (threads, tier) runs whose Fingerprint must equal the
  // baseline's too.
  std::vector<std::pair<int, SimdTier>> shapes;
  // kLostReplicas plans end in ResourceExhausted.
  FaultKind fault = kNoFault;
};

ChunkStore BuildInput(const Draw& d) {
  const Input& in = d.input;
  ChunkStore store(d.cfg.chunk_bytes, d.cfg.cluster.nodes, d.cfg.replication);
  if (d.workload == Workload::kTrigrams) {
    GenerateDocuments({.num_records = in.records / 8, .words_per_record = 12,
                       .vocabulary = in.keys / 4, .word_skew = in.skew + 0.2,
                       .seed = in.seed},
                      &store);
  } else if (d.workload == Workload::kPaddedSums) {
    // Halfway through, the rank -> key mapping rotates, so the hot set
    // moves and DINC's FREQUENT monitor must demote and promote.
    Xoshiro256StarStar rng = PerTaskRng(in.seed, 0);
    ZipfGenerator zipf(in.keys, in.skew);
    const uint64_t churn = rng.NextBounded(in.keys);
    const uint64_t max_pad = rng.NextBounded(64);
    for (uint64_t i = 0; i < in.records; ++i) {
      const uint64_t rank = zipf.Next(&rng);
      const uint64_t id = i < in.records / 2 ? rank : (rank + churn) % in.keys;
      std::string value = std::to_string(1 + rng.NextBounded(5)) + ":";
      value.append(rng.NextBounded(max_pad + 1), 'p');
      store.Append("k" + std::to_string(id), value);
    }
    store.Seal();
  } else {
    GenerateClickStream({.num_clicks = in.records, .num_users = in.keys,
                         .num_urls = in.urls, .user_skew = in.skew,
                         .clicks_per_second = in.clicks_per_second,
                         .record_bytes = in.record_bytes, .seed = in.seed},
                        &store);
  }
  return store;
}

JobSpec SpecFor(const Draw& d) {
  const Workload w = d.workload;
  JobSpec spec = ClickCountJob();
  switch (w) {
    case Workload::kClicks:
      break;
    case Workload::kPages:
      return PageFrequencyJob();
    case Workload::kFrequentUsers:
      return FrequentUserJob(d.threshold);
    case Workload::kTwicePerClick:
      spec.reducer = [] { return std::make_unique<TwicePerClickReducer>(); };
      spec.inc = [] { return std::make_unique<TwicePerClickIncReducer>(); };
      break;
    case Workload::kSilentMap:
    case Workload::kPaddedSums: {
      const bool silent = w == Workload::kSilentMap;
      spec.mapper = [silent] { return std::make_unique<EchoMapper>(silent); };
      if (silent) break;
      spec.reducer = [] { return std::make_unique<PaddedSumListReducer>(); };
      spec.inc = [] { return std::make_unique<PaddedSumIncReducer>(); };
      break;
    }
    case Workload::kTrigrams:
      return TrigramCountJob(d.threshold);
    case Workload::kSessions:
      return SessionizationJob(512);
    case Workload::kExactSessions:
      return SessionizationJob(1 << 20);
  }
  return spec;
}

// The answer in the form its contract fixes: the records for exact
// workloads, the flagged keys for threshold jobs (the count at the
// crossing depends on delivery granularity), the click multiset for
// sparse sessionization. A threshold job flags each key once, but DINC
// may flag a key again once it has evicted the key's state (spilled it)
// and re-admitted the key.
std::string Answer(Workload w, const JobConfig& cfg, const JobResult& r) {
  std::vector<std::string> lines;
  for (const Record& rec : r.outputs) {
    uint64_t session = 0, ts = 0;
    uint32_t url = 0;
    if (IsThreshold(w)) {
      lines.push_back(rec.key);
    } else if (w != Workload::kSessions) {
      lines.push_back(rec.key + "=" + rec.value);
    } else if (DecodeSessionOutput(rec.value, &session, &ts, &url)) {
      lines.push_back(rec.key + " " + std::to_string(ts) + " " +
                      std::to_string(url));
    }
  }
  if (IsThreshold(w) && cfg.engine == EngineKind::kDincHash &&
      r.metrics.reduce_spill_write_bytes > 0) {
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  }
  return SortedLines(std::move(lines));
}

std::string Reference(const Draw& d, const ChunkStore& input) {
  std::vector<std::string> lines;
  auto counts = [&](const std::map<std::string, uint64_t>& m) {
    for (const auto& [k, c] : m) {
      if (IsThreshold(d.workload)) {
        if (c >= d.threshold) lines.push_back(k);
      } else if (d.workload == Workload::kTwicePerClick) {
        lines.insert(lines.end(), c, k + "=x");
        lines.insert(lines.end(), c, k + "=y");
      } else {
        lines.push_back(k + "=" + std::to_string(c));
      }
    }
  };
  std::map<std::string, uint64_t> sums;
  std::string_view k, v;
  Click c;
  switch (d.workload) {
    case Workload::kSilentMap:
      break;
    case Workload::kPages:
      counts(ReferenceClickCounts(input, ClickKeyField::kUrl));
      break;
    case Workload::kTrigrams:
      counts(ReferenceTrigramCounts(input));
      break;
    case Workload::kPaddedSums:
      for (const Chunk& chunk : input.chunks()) {
        for (KvBufferReader r(chunk.records); r.Next(&k, &v);) {
          sums[std::string(k)] += ParseCount(v);
        }
      }
      counts(sums);
      break;
    case Workload::kSessions:
      for (const Chunk& chunk : input.chunks()) {
        for (KvBufferReader r(chunk.records); r.Next(&k, &v);) {
          if (!DecodeClick(v, &c)) return "undecodable click";
          lines.push_back(UserKey(c.user) + " " + std::to_string(c.ts) + " " +
                          std::to_string(c.url));
        }
      }
      break;
    case Workload::kExactSessions:
      for (const Record& rec :
           ReferenceSessionization(input, kDefaultClickPayloadBytes)) {
        lines.push_back(rec.key + "=" + rec.value);
      }
      break;
    default:
      counts(ReferenceClickCounts(input, ClickKeyField::kUser));
  }
  return SortedLines(std::move(lines));
}

std::string Describe(const Draw& d) {
  const JobConfig& c = d.cfg;
  const sim::FaultConfig& f = c.faults;
  const Input& in = d.input;
  std::ostringstream os;
  os << d.name << ": workload=" << kWorkloadNames[static_cast<int>(d.workload)]
     << " threshold=" << d.threshold << " input=" << in.records << "x"
     << in.keys << "/skew" << in.skew << "/" << in.record_bytes << "B/"
     << in.clicks_per_second << "cps/seed" << in.seed
     << " engine=" << EngineKindName(c.engine)
     << " combine=" << c.map_side_combine << " mem=" << c.reduce_memory_bytes
     << " F=" << c.merge_factor << " page=" << c.bucket_page_bytes
     << " keys=" << c.expected_keys_per_reducer
     << " bytes=" << c.expected_bytes_per_reducer
     << " map_buf=" << c.map_buffer_bytes << " nodes=" << c.cluster.nodes
     << "x" << c.cluster.cores_per_node << " slots=" << c.cluster.map_slots
     << "/" << c.cluster.reduce_slots << " R=" << c.reducers_per_node
     << " chunk=" << c.chunk_bytes << " repl=" << c.replication << " codec="
     << (c.block_codec == BlockCodecKind::kLz ? "lz" : "none")
     << " simd=" << SimdTierName(d.tier) << "(runs "
     << SimdTierName(SimdTierSupported(d.tier) ? d.tier : DetectSimdTier())
     << ") threads=" << c.data_plane_threads
     << " shuffle=" << ShuffleModeName(c.shuffle_mode)
     << " scope=" << CombineScopeName(c.combine_scope)
     << " budget=" << c.node_combine_budget_bytes
     << " pipelining=" << c.pipelining << "/" << c.pipeline_push_bytes
     << " snapshots=" << c.snapshots
     << " ckpt=" << c.checkpoint_interval_segments << "/"
     << c.checkpoint_replication << " seed=" << c.seed
     << " faults=" << kFaultNames[d.fault];
  for (const sim::CrashEvent& e : f.crashes) {
    os << " crash(node=" << e.node << " time=" << e.time
       << " map=" << e.at_map_fraction << " reduce=" << e.at_reduce_fraction
       << ")";
  }
  for (const sim::StragglerSpec& s : f.stragglers) {
    os << " straggler(node=" << s.node << " cpu=" << s.cpu_factor
       << " disk=" << s.disk_factor << ")";
  }
  os << " spec=" << f.speculative_execution
     << " disk_err=" << f.disk_error_rate
     << " fetch_err=" << f.fetch_failure_rate
     << " corrupt=" << f.corruption_rate << " torn=" << f.torn_writes;
  return os.str();
}

// ---- the generator ----

// The coverage dimensions: every pair of their values co-occurs in some
// draw (ConfigSpaceCoverage.EveryPairOfValuesCoOccurs). Scope takes three
// values: task, node, and node under the minimum (4 KB) budget.
enum Dim { kEngine, kCodec, kShuffle, kScope, kCkpt, kFault, kThreads, kTier,
           kDims };
constexpr const char* kDimNames[kDims] = {
    "engine", "codec", "shuffle", "scope", "ckpt", "fault", "threads", "simd"};
constexpr int kThreadCounts[] = {0, 1, 2, 8};
// Every tier on every host, so the draws do not depend on the CPU:
// SetSimdTier runs a tier the host lacks as the best one it has.
constexpr SimdTier kTiers[] = {SimdTier::kScalar, SimdTier::kSse42,
                               SimdTier::kAvx2, SimdTier::kAvx512,
                               SimdTier::kArmCrc};

using Coords = std::array<int, kDims>;
using Pair = std::array<int, 4>;  // (dim a, value a, dim b, value b), a < b

constexpr Coords kDimSizes = {4, 2, 2, 3, 2, kFaultKinds, 4, 5};

Coords CoordsOf(const Draw& d) {
  const JobConfig& c = d.cfg;
  auto index = [](const auto& range, auto v) {
    return static_cast<int>(std::find(std::begin(range), std::end(range), v) -
                            std::begin(range));
  };
  return {static_cast<int>(c.engine),
          c.block_codec == BlockCodecKind::kLz,
          c.shuffle_mode == ShuffleMode::kResident,
          c.combine_scope == CombineScope::kTask
              ? 0
              : (c.node_combine_budget_bytes > 0 ? 2 : 1),
          c.checkpoint_interval_segments > 0,
          d.fault,
          index(kThreadCounts, c.data_plane_threads),
          index(kTiers, d.tier)};
}

void Cover(const Coords& v, std::set<Pair>* pairs) {
  for (int a = 0; a < kDims; ++a) {
    for (int b = a + 1; b < kDims; ++b) pairs->insert({a, v[a], b, v[b]});
  }
}

bool Allowed(Workload w, int dim, int v) {
  if (dim == kScope && v > 0) return !IsSessions(w);
  // DINC keeps a bounded hot set: a user's clicks split between resident
  // spells and disk buckets, so exact session ids are not its contract.
  return !(dim == kEngine && w == Workload::kExactSessions &&
           v == static_cast<int>(EngineKind::kDincHash));
}

// Greedy all-pairs: dimensions in a random order, each taking the allowed
// value that covers the most pairs not yet covered with the values chosen
// so far (ties: a random rotation).
Coords PickCoords(Workload w, Xoshiro256StarStar& rng,
                  std::set<Pair>* covered) {
  const Coords& sizes = kDimSizes;
  std::vector<int> order(kDims);
  for (int i = 0; i < kDims; ++i) order[i] = i;
  Shuffle(&order, &rng);
  Coords v;
  v.fill(-1);
  for (int dim : order) {
    int best_score = -1;
    const int start = static_cast<int>(rng.NextBounded(sizes[dim]));
    for (int k = 0; k < sizes[dim]; ++k) {
      const int val = (start + k) % sizes[dim];
      if (!Allowed(w, dim, val)) continue;
      int score = 0;
      for (int e = 0; e < kDims; ++e) {
        for (int ve = 0; e != dim && ve < sizes[e]; ++ve) {
          if (v[e] >= 0 && ve != v[e]) continue;
          score += !covered->count(dim < e ? Pair{dim, val, e, ve}
                                           : Pair{e, ve, dim, val});
        }
      }
      if (score > best_score) {
        v[dim] = val;
        best_score = score;
      }
    }
  }
  Cover(v, covered);
  return v;
}

template <typename T, size_t N>
T Pick(Xoshiro256StarStar& rng, const T (&values)[N]) {
  return values[rng.NextBounded(N)];
}

void DrawFaults(Draw* d, Xoshiro256StarStar& rng) {
  JobConfig& c = d->cfg;
  sim::FaultConfig& f = c.faults;
  const int kind = d->fault, nodes = c.cluster.nodes;
  // Crash plans keep a live replica of every chunk: replication exceeds
  // the crashed node count. Corruption plans keep two replicas, so a bad
  // DFS replica fails over.
  const int crashes =
      kind == kCrash || kind == kMixed
          ? 1 + static_cast<int>(rng.NextBounded(std::min(2, nodes - 1)))
          : 0;
  const int min_repl =
      std::max(crashes + 1, kind == kCorrupt || kind == kMixed ? 2 : 1);
  c.replication = min_repl + static_cast<int>(rng.NextBounded(
                                 static_cast<uint64_t>(nodes - min_repl + 1)));
  std::vector<int> victims(static_cast<size_t>(nodes));
  for (int n = 0; n < nodes; ++n) victims[static_cast<size_t>(n)] = n;
  Shuffle(&victims, &rng);
  for (int i = 0; i < crashes; ++i) {
    sim::CrashEvent e{.node = victims[static_cast<size_t>(i)]};
    // A checkpoint matters only to a reducer that dies after writing one:
    // with checkpoints on, the first crash comes late in the shuffle.
    const bool late = i == 0 && c.checkpoint_interval_segments > 0;
    switch (late ? 3 : rng.NextBounded(3)) {
      case 0:
        e.at_map_fraction = Pick(rng, {0.3, 0.5, 0.8});
        break;
      case 1:
        e.at_reduce_fraction = Pick(rng, {0.3, 0.7, 0.9});
        break;
      case 2:
        e.time = Pick(rng, {0.3, 0.8, 1.5});
        break;
      default:
        e.at_reduce_fraction = 0.9;
    }
    f.crashes.push_back(e);
  }
  if (kind != kNoFault && kind != kLostReplicas) {
    f.speculative_execution = rng.NextBool(0.5);
  }
  if (kind == kStraggler || kind == kMixed) {
    f.stragglers.push_back({.node = static_cast<int>(rng.NextBounded(nodes)),
                            .cpu_factor = Pick(rng, {1.5, 2.0, 3.0}),
                            .disk_factor = Pick(rng, {1.0, 1.5, 2.0})});
    f.speculative_execution = true;
  }
  if (kind == kTransient || kind == kMixed) {
    f.disk_error_rate = Pick(rng, {0.02, 0.05, 0.1});
    f.fetch_failure_rate = Pick(rng, {0.02, 0.05, 0.1});
  }
  if (kind == kCorrupt || kind == kMixed) {
    f.corruption_rate = Pick(rng, {0.005, 0.01, 0.02});
    f.torn_writes = rng.NextBool(0.5);
  }
  if (kind == kLostReplicas) {
    // Node 0 holds the only copy of chunk 0 (placement is round-robin),
    // and mid-map its work is unfinished or still unfetched.
    c.replication = 1;
    f.crashes.push_back({.node = 0, .at_map_fraction = 0.3});
  }
}

Draw MakeDraw(int index, std::set<Pair>* covered) {
  Xoshiro256StarStar rng = PerTaskRng(kSpaceSeed, static_cast<uint64_t>(index));
  Draw d;
  d.name = "ConfigSpace.Draw/" + std::to_string(index);
  d.workload = static_cast<Workload>(rng.NextBounded(kWorkloads));
  d.input = {.records = Pick(rng, {3'000ull, 6'000ull, 12'000ull}),
             .keys = Pick(rng, {300ull, 800ull, 1'500ull}),
             .skew = Pick(rng, {0.6, 0.9, 1.2}),
             .seed = rng.NextBounded(1 << 16),
             .record_bytes = Pick(rng, {size_t{64}, size_t{128}})};
  const Coords v = PickCoords(d.workload, rng, covered);
  JobConfig& c = d.cfg;
  c.engine = static_cast<EngineKind>(v[kEngine]);
  c.block_codec = v[kCodec] ? BlockCodecKind::kLz : BlockCodecKind::kNone;
  c.shuffle_mode = v[kShuffle] ? ShuffleMode::kResident : ShuffleMode::kDisk;
  c.combine_scope = v[kScope] ? CombineScope::kNode : CombineScope::kTask;
  c.node_combine_budget_bytes = v[kScope] == 2 ? 4096 : 0;
  c.checkpoint_interval_segments = v[kCkpt] ? Pick(rng, {2u, 4u, 8u}) : 0;
  c.data_plane_threads = kThreadCounts[v[kThreads]];
  d.tier = kTiers[v[kTier]];
  d.fault = static_cast<FaultKind>(v[kFault]);

  c.cluster = {.nodes = Pick(rng, {3, 4, 5}),
               .cores_per_node = Pick(rng, {1, 2}),
               .map_slots = Pick(rng, {1, 2}),
               .reduce_slots = Pick(rng, {1, 2})};
  c.reducers_per_node = Pick(rng, {1, 2});
  c.chunk_bytes = Pick(rng, {32ull << 10, 64ull << 10});
  c.map_buffer_bytes = Pick(rng, {128ull << 10, 1ull << 20});
  c.reduce_memory_bytes =
      Pick(rng, {2ull << 10, 8ull << 10, 64ull << 10, 1ull << 20});
  c.merge_factor = Pick(rng, {2, 3, 4, 8});
  c.bucket_page_bytes = Pick(rng, {256ull, 512ull, 1024ull, 4096ull});
  c.expected_keys_per_reducer = Pick(rng, {0ull, 150ull});
  c.expected_bytes_per_reducer = Pick(rng, {0ull, 64ull << 10});
  // kNode needs a combine function on the values-list engines.
  c.map_side_combine =
      rng.NextBool(0.5) || (c.combine_scope == CombineScope::kNode &&
                            (c.engine == EngineKind::kSortMerge ||
                             c.engine == EngineKind::kMRHash));
  if (c.engine == EngineKind::kSortMerge) {
    c.pipelining = c.combine_scope == CombineScope::kTask && rng.NextBool(0.3);
    c.pipeline_push_bytes = Pick(rng, {0ull, 16ull << 10, 64ull << 10});
    c.snapshots = Pick(rng, {0, 0, 1, 3});
  }
  c.checkpoint_replication =
      1 + static_cast<int>(rng.NextBounded(std::min(3, c.cluster.nodes)));
  c.seed = rng.NextBounded(1 << 20);
  c.collect_outputs = true;
  if (IsSessions(d.workload)) {
    // Sessionization's combine is order-sensitive inside its bounded
    // buffer: no combiner tier preserves it. A sparse stream lets
    // sessions expire.
    c.map_side_combine = false;
    d.input.record_bytes = 64;
    d.input.clicks_per_second = 2;
  }
  if (d.workload == Workload::kExactSessions) {
    // Exactness needs ample state and bounded disorder: a chunk spans
    // well under the 5-minute session gap.
    c.reduce_memory_bytes = 2 << 20;
    d.input.clicks_per_second = 60;
  }
  DrawFaults(&d, rng);
  return d;
}

const std::vector<Draw>& Draws() {
  static const std::vector<Draw> draws = [] {
    std::set<Pair> covered;
    std::vector<Draw> out;
    for (int i = 0; i < kDraws; ++i) out.push_back(MakeDraw(i, &covered));
    return out;
  }();
  return draws;
}

// ---- the oracles ----

// Bytes the intermediate plane moved (map spills, map output, shuffle,
// reduce spills); map input and reduce output are outside the codec.
uint64_t IntermediateBytes(const JobMetrics& m) {
  return m.map_spill_write_bytes + m.map_spill_read_bytes +
         m.map_output_bytes + m.shuffle_bytes + m.reduce_spill_write_bytes +
         m.reduce_spill_read_bytes;
}

// Compares two renderings and reports the first line that differs:
// gtest's own string diff is quadratic in the line count and can exhaust
// memory on a large answer.
void ExpectSame(const std::string& got, const std::string& want,
                const std::string& what) {
  if (got == want) return;
  const size_t i =
      std::mismatch(got.begin(), got.end(), want.begin(), want.end()).first -
      got.begin();
  const size_t nl = i == 0 ? std::string::npos : got.rfind('\n', i - 1);
  const size_t b = nl == std::string::npos ? 0 : nl + 1;
  auto line = [b](const std::string& s) {
    return s.substr(b, std::min(s.find('\n', b), s.size()) - b);
  };
  ADD_FAILURE() << what << " (" << got.size() << " vs " << want.size()
                << " bytes); first differing line: \"" << line(got)
                << "\" vs \"" << line(want) << "\"";
}

Result<JobResult> RunAt(const Draw& d, const JobConfig& cfg,
                        const ChunkStore& input, SimdTier tier) {
  SetSimdTier(tier);
  Result<JobResult> r = LocalCluster::RunJob(SpecFor(d), cfg, input);
  SetSimdTier(DetectSimdTier());
  return r;
}

void ExpectProgress(const char* name, const sim::StepSeries& s) {
  EXPECT_TRUE(std::is_sorted(s.values.begin(), s.values.end()))
      << name << " decreased";
  EXPECT_NEAR(s.values.empty() ? 0 : s.values.back(), 100.0, 1e-9) << name;
}

// Each tier's counters are engaged exactly when the tier is on.
void ExpectTierCounters(const JobConfig& cfg, const JobMetrics& m) {
  const bool data = m.map_output_records > 0;
  if (cfg.block_codec == BlockCodecKind::kNone) {
    EXPECT_EQ(m.codec_map_spill_raw_bytes + m.codec_map_spill_encoded_bytes +
                  m.codec_shuffle_raw_bytes + m.codec_shuffle_encoded_bytes +
                  m.codec_reduce_spill_raw_bytes +
                  m.codec_reduce_spill_encoded_bytes +
                  m.codec_bucket_raw_bytes + m.codec_bucket_encoded_bytes,
              0u)
        << "kNone charged codec counters";
  } else if (data) {
    EXPECT_GT(m.codec_shuffle_raw_bytes, 0u) << "kLz never engaged";
  }
  if (cfg.shuffle_mode == ShuffleMode::kDisk) {
    EXPECT_EQ(m.resident_publish_segments + m.resident_hit_bytes, 0u);
  } else {
    EXPECT_GT(m.resident_publish_segments, 0u) << "kResident never engaged";
  }
  if (cfg.combine_scope == CombineScope::kTask) {
    EXPECT_EQ(m.node_combine_tasks + m.node_combine_input_records, 0u);
  } else if (data) {
    EXPECT_GT(m.node_combine_tasks, 0u) << "kNode never engaged";
    EXPECT_GT(m.node_combine_input_records, 0u);
    // A 4 KB budget split across the reducer shards degrades every busy
    // hash shard to the sketch; the sorted discipline streams instead.
    if (cfg.node_combine_budget_bytes == 4096 &&
        cfg.engine != EngineKind::kSortMerge) {
      EXPECT_GT(m.node_combine_sketch_shards, 0u);
    }
  }
}

// `input` is BuildInput(d) and `reference` its Reference.
void RunDraw(const Draw& d, const ChunkStore& input,
             const std::string& reference) {
  SCOPED_TRACE(Describe(d));
  const Status valid = ValidateJob(SpecFor(d), d.cfg);
  ASSERT_TRUE(valid.ok()) << valid.ToString();
  const Result<JobResult> run = RunAt(d, d.cfg, input, d.tier);
  JobConfig base_cfg = d.cfg;
  base_cfg.data_plane_threads = 1;
  const bool at_base =
      d.tier == SimdTier::kScalar && d.cfg.data_plane_threads == 1;
  std::optional<Result<JobResult>> base_run;
  if (!at_base) base_run = RunAt(d, base_cfg, input, SimdTier::kScalar);
  const Result<JobResult>& base = at_base ? run : *base_run;
  if (d.fault == kLostReplicas) {
    EXPECT_TRUE(base.status().IsResourceExhausted())
        << base.status().ToString();
    EXPECT_EQ(run.status().ToString(), base.status().ToString());
    return;
  }
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // 1: the reference answer.
  ExpectSame(Answer(d.workload, d.cfg, *run), reference,
             "the answer differs from the reference");
  if (d.workload == Workload::kTwicePerClick) {
    EXPECT_GT(run->outputs.size(), run->metrics.map_output_records);
  }
  if (d.workload == Workload::kSilentMap) {
    EXPECT_EQ(run->metrics.map_output_records, 0u);
  }
  // 2: byte identity at the drawn threads and tier, and at any further
  // shapes the draw names.
  if (!at_base) {
    ExpectSame(Fingerprint(*run), Fingerprint(*base),
               "diverged from the 1-thread scalar baseline");
  }
  for (const auto& [threads, tier] : d.shapes) {
    JobConfig cfg = d.cfg;
    cfg.data_plane_threads = threads;
    const Result<JobResult> r = RunAt(d, cfg, input, tier);
    const std::string shape = "threads=" + std::to_string(threads) +
                              " simd=" + std::string(SimdTierName(tier));
    ASSERT_TRUE(r.ok()) << shape << ": " << r.status().ToString();
    ExpectSame(Fingerprint(*r), Fingerprint(*base), shape + " diverged");
  }
  // 4: Definition-1 progress.
  ExpectProgress("map_progress", run->map_progress);
  ExpectProgress("reduce_progress", run->reduce_progress);
  ExpectTierCounters(d.cfg, run->metrics);

  // 3: the default tiers give the same answer.
  JobConfig plain_cfg = d.cfg;
  plain_cfg.block_codec = BlockCodecKind::kNone;
  plain_cfg.shuffle_mode = ShuffleMode::kDisk;
  plain_cfg.combine_scope = CombineScope::kTask;
  plain_cfg.node_combine_budget_bytes = 0;
  plain_cfg.checkpoint_interval_segments = 0;
  const bool lz = d.cfg.block_codec == BlockCodecKind::kLz;
  const bool node = d.cfg.combine_scope == CombineScope::kNode;
  if (!lz && !node && d.cfg.shuffle_mode == ShuffleMode::kDisk &&
      d.cfg.checkpoint_interval_segments == 0) {
    return;  // the draw already runs every default tier
  }
  const Result<JobResult> plain = RunAt(d, plain_cfg, input, d.tier);
  ASSERT_TRUE(plain.ok()) << "default tiers: " << plain.status().ToString();
  ExpectTierCounters(plain_cfg, plain->metrics);
  if (!lz && !node) {
    ExpectSame(SortedOutputs(*run), SortedOutputs(*plain),
               "shuffle mode or checkpoints changed the output bytes");
  } else {
    ExpectSame(Answer(d.workload, d.cfg, *run),
               Answer(d.workload, plain_cfg, *plain),
               "a tier changed the answer");
  }
  if (lz && d.workload == Workload::kClicks) {
    EXPECT_LT(IntermediateBytes(run->metrics),
              IntermediateBytes(plain->metrics))
        << "kLz moved no fewer intermediate bytes";
  }
  if (node && !lz) {
    EXPECT_LE(run->metrics.shuffle_bytes, plain->metrics.shuffle_bytes)
        << "kNode shuffled more than kTask";
  }
}

// Draws with one store and reference: the property sweep runs each input
// on four engines.
bool SameInput(const Draw& a, const Draw& b) {
  return a.workload == b.workload && a.threshold == b.threshold &&
         a.input == b.input && a.cfg.chunk_bytes == b.cfg.chunk_bytes &&
         a.cfg.cluster.nodes == b.cfg.cluster.nodes &&
         a.cfg.replication == b.cfg.replication;
}

// One ctest case: one draw, or several checked in turn.
class DrawTest : public ::testing::Test {
 public:
  explicit DrawTest(std::vector<Draw> draws) : draws_(std::move(draws)) {}
  void TestBody() override {
    std::optional<ChunkStore> input;
    std::string reference;
    for (size_t i = 0; i < draws_.size(); ++i) {
      const Draw& d = draws_[i];
      if (i == 0 || !SameInput(d, draws_[i - 1])) {
        input.emplace(BuildInput(d));
        reference = Reference(d, *input);
      }
      RunDraw(d, *input, reference);
    }
  }

 private:
  std::vector<Draw> draws_;
};

void Register(const std::string& suite, const std::string& test,
              const std::string& param, std::vector<Draw> draws) {
  for (Draw& d : draws) {
    if (d.name.empty()) d.name = suite + "." + test;
  }
  ::testing::RegisterTest(
      suite.c_str(), test.c_str(), nullptr,
      param.empty() ? nullptr : param.c_str(), __FILE__, __LINE__,
      [draws]() -> ::testing::Test* { return new DrawTest(draws); });
}

// ---- pinned draws: the retired per-tier suites' cases ----

// The base most of those suites shared: 30,000 seed-11 clicks on five
// nodes, starved reduce memory (every engine spills), map-side combine.
Draw SharedBase(Workload w, EngineKind e) {
  Draw d;
  d.workload = w;
  d.input = {.records = 30'000, .keys = 1'500, .skew = 0.8, .seed = 11};
  JobConfig& c = d.cfg;
  c.engine = e;
  c.cluster = {.nodes = 5, .cores_per_node = 2, .map_slots = 2,
               .reduce_slots = 2};
  c.reducers_per_node = 2;
  c.chunk_bytes = 64 << 10;
  c.reduce_memory_bytes = IsSessions(w) ? 64 << 10 : 8 << 10;
  c.merge_factor = 4;
  c.bucket_page_bytes = 1024;
  c.map_side_combine = !IsSessions(w);
  c.collect_outputs = true;
  c.expected_keys_per_reducer = 150;
  c.expected_bytes_per_reducer = 64 << 10;
  c.data_plane_threads = 1;
  return d;
}

// What a per-tier case changed on the shared base.
enum Pin : unsigned {
  kPinLz = 1, kPinResident = 2, kPinNode = 4,
  kPinThreads = 8,        // 8 threads, and 2 as a further shape
  kPinThreads4 = 16,
  kPinBudget = 32,        // kNode under the minimum 4 KB budget
  kPinCorrupting = 64,    // mid-map crash, transient errors, corruption
  kPinFaulted = 128,      // kPinCorrupting plus a straggler, speculation
  kPinReduceCrash = 256,  // a crash in the shuffle
  kPinBatchShape = 512,   // padded 128-byte Zipf clicks at 8 threads on the
                          // detected tier; every hardware tier at 1 and 8
                          // threads as further shapes
  kPinNoCombine = 1024,   // one map output record per click
};

Draw Pinned(Workload w, EngineKind e, unsigned pins) {
  Draw d = SharedBase(w, e);
  JobConfig& c = d.cfg;
  sim::FaultConfig& f = c.faults;
  if (pins & kPinLz) c.block_codec = BlockCodecKind::kLz;
  if (pins & kPinResident) c.shuffle_mode = ShuffleMode::kResident;
  if (pins & (kPinNode | kPinBudget)) c.combine_scope = CombineScope::kNode;
  if (pins & kPinBudget) c.node_combine_budget_bytes = 4096;
  if (pins & (kPinThreads | kPinBatchShape)) c.data_plane_threads = 8;
  if (pins & kPinThreads) d.shapes = {{2, SimdTier::kScalar}};
  if (pins & kPinThreads4) c.data_plane_threads = 4;
  if (pins & kPinNoCombine) c.map_side_combine = false;
  if (pins & kPinBatchShape) {
    d.tier = DetectSimdTier();
    for (const SimdTier t : kTiers) {
      for (const int threads : {1, 8}) {
        if (t != SimdTier::kScalar && SimdTierSupported(t) &&
            (t != d.tier || threads != 8)) {
          d.shapes.push_back({threads, t});
        }
      }
    }
    d.input = {.records = 24'000, .keys = 1'200, .skew = 1.1, .seed = 58,
               .record_bytes = 128};
  }
  if (pins & (kPinCorrupting | kPinFaulted)) {
    d.fault = kMixed;
    c.replication = 2;
    f.crashes.push_back({.node = 2, .at_map_fraction = 0.5});
    f.disk_error_rate = f.fetch_failure_rate = 0.05;
    f.corruption_rate = 0.01;
    f.torn_writes = true;
  }
  if (pins & kPinFaulted) {
    f.stragglers.push_back({.node = 1, .cpu_factor = 2.0, .disk_factor = 1.5});
    f.speculative_execution = true;
  }
  if (pins & kPinReduceCrash) {
    d.fault = kCrash;
    c.replication = 2;
    f.crashes.push_back({.node = 1, .at_reduce_fraction = 0.3});
  }
  return d;
}

struct PinnedCase {
  const char* suite;
  const char* test;
  Workload workload;
  unsigned pins;
};

const PinnedCase kPerEngineCases[] = {
    {"BatchEquivalence", "CleanRunByteIdenticalAcrossBatchShapes",
     Workload::kClicks, kPinBatchShape | kPinLz},
    {"BatchEquivalence", "FaultedRunByteIdenticalAcrossBatchShapes",
     Workload::kClicks, kPinBatchShape | kPinFaulted},
    {"CodecEquivalence", "CleanRunSameAnswerFewerBytes", Workload::kClicks,
     kPinLz},
    {"CodecEquivalence", "FaultedCorruptedRunSameAnswer", Workload::kClicks,
     kPinLz | kPinCorrupting},
    {"CodecEquivalence", "LzRunByteIdenticalAcrossThreadCounts",
     Workload::kClicks, kPinLz | kPinThreads},
    {"ResidentEquivalence", "CleanRunSameAnswer", Workload::kClicks,
     kPinResident},
    {"ResidentEquivalence", "FaultedRunSameAnswer", Workload::kClicks,
     kPinResident | kPinCorrupting},
    {"ResidentEquivalence", "ResidentRunByteIdenticalAcrossThreadCounts",
     Workload::kClicks, kPinResident | kPinThreads},
    {"ResidentEquivalence", "SessionizationSameAnswer", Workload::kSessions,
     kPinResident},
    {"NodeCombineEquivalence", "CleanRunSameAnswer", Workload::kClicks,
     kPinNode},
    {"NodeCombineEquivalence", "FaultedRunSameAnswer", Workload::kClicks,
     kPinNode | kPinCorrupting},
    {"NodeCombineEquivalence", "ReducePhaseCrashSameAnswer", Workload::kClicks,
     kPinNode | kPinReduceCrash},
    {"NodeCombineEquivalence", "BudgetPressureSketchFallbackSameAnswer",
     Workload::kClicks, kPinBudget},
    {"NodeCombineEquivalence", "NodeRunByteIdenticalAcrossThreadCounts",
     Workload::kClicks, kPinNode | kPinThreads},
    {"NodeCombineEquivalence", "ThresholdWorkloadFlagsSameKeys",
     Workload::kFrequentUsers, kPinNode | kPinResident | kPinThreads},
    {"ParallelDeterminism", "CleanRunByteIdenticalAcrossThreadCounts",
     Workload::kClicks, kPinThreads},
    {"ParallelDeterminism", "FaultedRunByteIdenticalAcrossThreadCounts",
     Workload::kClicks, kPinFaulted | kPinThreads},
    {"ParallelDeterminism", "AnswerOutgrowsTheReservation",
     Workload::kTwicePerClick, kPinNoCombine | kPinThreads4},
    {"ParallelDeterminism", "EmptyAnswerFromASilentMap", Workload::kSilentMap,
     kPinThreads4},
};

constexpr EngineKind kEngines[] = {EngineKind::kSortMerge, EngineKind::kMRHash,
                                   EngineKind::kIncHash, EngineKind::kDincHash};
// Case names spell an engine "SortMerge" or as its EngineTag.
constexpr const char* kCamelNames[] = {"SortMerge", "MRHash", "IncHash",
                                       "DincHash"};

// A memory-regime sweep cell, laid out as that suite's parameter was:
// gtest names a case after its parameter's raw bytes.
struct SweepCell {
  EngineKind engine;
  uint8_t pad0[7] = {};
  uint64_t reduce_memory;
  int merge_factor;
  int32_t pad1 = 0;
  uint64_t page_bytes;
};

// Sessionization on 25,000 seed-31 clicks over four nodes.
Draw SessionBase(Workload w, EngineKind e, uint64_t memory, double rate) {
  Draw d = SharedBase(w, e);
  d.input = {.records = 25'000, .keys = 700, .skew = 0.6, .seed = 31,
             .clicks_per_second = rate};
  JobConfig& c = d.cfg;
  c.cluster = {.nodes = 4, .reduce_slots = 2};
  c.reduce_memory_bytes = memory;
  c.merge_factor = 6;
  c.bucket_page_bytes = JobConfig().bucket_page_bytes;
  c.expected_keys_per_reducer = 180;
  c.expected_bytes_per_reducer = 1 << 20;
  return d;
}

// The integration suite's base: 20,000 seed-7 clicks over ~8 simulated
// hours on four nodes, ample reduce memory (no spills); frequent users
// at 50 clicks, trigrams at 20.
Draw SmallBase(Workload w, EngineKind e) {
  Draw d = SharedBase(w, e);
  d.threshold = w == Workload::kTrigrams ? 20 : 50;
  d.input = {.records = 20'000, .keys = 800, .urls = 200, .skew = 1.0,
             .seed = 7, .clicks_per_second = 40};
  if (w == Workload::kTrigrams) {
    d.input = {.records = 32'000, .keys = 1'200, .skew = 0.9, .seed = 5678};
  }
  JobConfig& c = d.cfg;
  c.cluster.nodes = 4;
  c.chunk_bytes = 128 << 10;
  c.map_buffer_bytes = 256 << 10;
  // Ample, but for sparse sessionization: DINC under eviction pressure.
  c.reduce_memory_bytes = w == Workload::kSessions ? 64 << 10 : 4 << 20;
  c.merge_factor = 8;
  c.bucket_page_bytes = JobConfig().bucket_page_bytes;
  c.expected_keys_per_reducer = 200;
  c.expected_bytes_per_reducer = 1 << 20;
  return d;
}

// The engine property sweep: padded Zipf sums over a key universe of
// 50-3,000, 2,000-12,000 records, skew 0-1.5, padding 0-63 bytes and
// about 3-19 deliveries, each a whole job on one reducer, so one engine
// instance folds every key under the drawn memory, page size, merge
// factor and estimates.
Draw PaddedDraw(uint64_t index, EngineKind e) {
  Xoshiro256StarStar rng = PerTaskRng(0xE9E9, index);
  Draw d;
  d.name = "EngineEquivalenceProperty/" + std::to_string(index);
  d.workload = Workload::kPaddedSums;
  d.input = {.records = 2'000 + rng.NextBounded(10'000),
             .keys = 50 + rng.NextBounded(2'950),
             .skew = 1.5 * rng.NextDouble(),
             .seed = rng.NextBounded(1 << 16)};
  const uint64_t deliveries = 3 + rng.NextBounded(17);
  JobConfig& c = d.cfg;
  c.engine = e;
  c.cluster = {.nodes = 1, .cores_per_node = 2, .map_slots = 2,
               .reduce_slots = 1};
  c.reducers_per_node = 1;
  // A map task per chunk, each one delivery. Records average ~25 bytes;
  // the padding BuildInput draws moves that, to 2-26 tasks over the sweep.
  c.chunk_bytes = d.input.records * 25 / deliveries;
  c.reduce_memory_bytes =
      Pick(rng, {2ull << 10, 8ull << 10, 64ull << 10, 1ull << 20});
  c.bucket_page_bytes = Pick(rng, {256ull, 1024ull, 4096ull});
  c.merge_factor = Pick(rng, {2, 3, 8});
  c.expected_keys_per_reducer = rng.NextBool(0.5) ? d.input.keys / 2 : 0;
  c.expected_bytes_per_reducer = rng.NextBool(0.5) ? 64 << 10 : 0;
  c.collect_outputs = true;
  c.data_plane_threads = 1;
  return d;
}

const bool kRegistered = [] {
  for (const Draw& d : Draws()) {
    Register("ConfigSpace", d.name.substr(d.name.find('.') + 1), "", {d});
  }
  for (const PinnedCase& pc : kPerEngineCases) {
    for (const EngineKind e : kEngines) {
      Register(std::string("Engines/") + pc.suite,
               std::string(pc.test) + "/" + EngineTag(e),
               ::testing::PrintToString(e), {Pinned(pc.workload, e, pc.pins)});
    }
  }
  // Ample, tight and starved reduce memory; sort-merge also at F = 2, 3.
  std::vector<SweepCell> sweep = {
      {EngineKind::kSortMerge, {}, 1 << 20, 8, 0, 4096},
      {EngineKind::kSortMerge, {}, 8 << 10, 8, 0, 4096},
      {EngineKind::kSortMerge, {}, 2 << 10, 3, 0, 4096},
      {EngineKind::kSortMerge, {}, 2 << 10, 2, 0, 512}};
  for (const EngineKind e : {EngineKind::kMRHash, EngineKind::kIncHash,
                             EngineKind::kDincHash}) {
    sweep.push_back({e, {}, 1 << 20, 8, 0, 4096});
    sweep.push_back({e, {}, 8 << 10, 8, 0, 1024});
    sweep.push_back({e, {}, 2 << 10, 8, 0, 512});
  }
  for (const SweepCell& cell : sweep) {
    Draw d = SharedBase(Workload::kClicks, cell.engine);
    d.cfg.reduce_memory_bytes = cell.reduce_memory;
    d.cfg.merge_factor = cell.merge_factor;
    d.cfg.bucket_page_bytes = cell.page_bytes;
    Register("Sweep/EquivalenceSweep",
             std::string("ClickCountsExact/") +
                 kCamelNames[static_cast<int>(cell.engine)] + "_mem" +
                 std::to_string(cell.reduce_memory >> 10) + "k_f" +
                 std::to_string(cell.merge_factor) + "_page" +
                 std::to_string(cell.page_bytes),
             ::testing::PrintToString(cell), {d});
  }
  std::vector<Draw> padded;
  for (uint64_t i = 0; i < 56; ++i) {
    for (const EngineKind e : kEngines) padded.push_back(PaddedDraw(i, e));
  }
  Register("EngineEquivalenceProperty", "FiftyRandomWorkloadsGroupIdentically",
           "", padded);
  for (const EngineKind e : kEngines) {
    const std::string camel = kCamelNames[static_cast<int>(e)];
    for (const uint64_t memory : {uint64_t{16} << 10, uint64_t{128} << 10,
                                  uint64_t{2} << 20}) {
      Register("Sweep/SessionSweep",
               "ClickMultisetPreserved/" + camel + "_mem" +
                   std::to_string(memory >> 10) + "k",
               ::testing::PrintToString(std::make_tuple(e, memory)),
               {SessionBase(Workload::kSessions, e, memory, 2)});
    }
    for (const auto& [w, test] :
         {std::pair{Workload::kClicks, "ClickCountMatchesReference/"},
          {Workload::kPages, "PageFrequencyMatchesReference/"},
          {Workload::kFrequentUsers, "FrequentUsersMatchReference/"},
          {Workload::kTrigrams, "TrigramCountsMatchReference/"}}) {
      Register("AllEngines/EngineParamTest", test + camel,
               ::testing::PrintToString(e), {SmallBase(w, e)});
    }
    // DINC's sessionization contract is the click multiset (see Allowed).
    const bool dinc = e == EngineKind::kDincHash;
    const char* tests[] = {"MatchesReference", "MatchesReference",
                           "MatchesReferenceWithAmpleState",
                           "PreservesAllClicks"};
    Register("SessionizationTest", camel + tests[static_cast<int>(e)], "",
             {SmallBase(dinc ? Workload::kSessions : Workload::kExactSessions,
                        e)});
    if (dinc) continue;
    Register("Engines/SessionExactness", "ExactSessionsWithAmpleState/" + camel,
             ::testing::PrintToString(e),
             {SessionBase(Workload::kExactSessions, e, 2 << 20, 60)});
  }
  // The node-combine recovery stall: under kNode, a map-phase crash, a
  // reduce-phase crash and a straggler once left a combine task queued
  // while its lost node-feed contributions still looked intact.
  for (const bool spec : {false, true}) {
    for (const EngineKind e : kEngines) {
      Draw d;
      d.input = {.records = 20'000, .keys = 1'200, .skew = 0.9, .seed = 99};
      d.tier = DetectSimdTier();
      JobConfig& c = d.cfg;
      c.engine = e;
      c.cluster = {.nodes = 3, .cores_per_node = 2, .map_slots = 1,
                   .reduce_slots = 1};
      c.reducers_per_node = 1;
      c.chunk_bytes = 64 << 10;
      c.map_side_combine = true;
      c.combine_scope = CombineScope::kNode;
      c.replication = 3;
      c.seed = 1022;
      c.collect_outputs = true;
      c.data_plane_threads = 2;
      c.faults.crashes = {{.node = 2, .at_map_fraction = 0.3},
                          {.node = 0, .at_reduce_fraction = 0.7}};
      c.faults.stragglers = {{.node = 1, .cpu_factor = 2, .disk_factor = 2}};
      c.faults.speculative_execution = spec;
      Register("NodeCombineCrashRepro",
               std::string(spec ? "Speculation/" : "NoSpeculation/") +
                   EngineTag(e),
               "", {d});
    }
  }
  return true;
}();

// ---- fixed cases ----

// The space is strictly larger than the per-tier suites': every pair of
// coverage-dimension values co-occurs in some draw. Runs no job.
TEST(ConfigSpaceCoverage, EveryPairOfValuesCoOccurs) {
  ASSERT_TRUE(kRegistered);
  const Coords& sizes = kDimSizes;
  std::set<Pair> seen;
  for (const Draw& d : Draws()) {
    EXPECT_TRUE(ValidateJob(SpecFor(d), d.cfg).ok()) << Describe(d);
    Cover(CoordsOf(d), &seen);
  }
  for (int a = 0; a < kDims; ++a) {
    for (int b = a + 1; b < kDims; ++b) {
      for (int va = 0; va < sizes[a]; ++va) {
        for (int vb = 0; vb < sizes[b]; ++vb) {
          EXPECT_TRUE(seen.count({a, va, b, vb}))
              << kDimNames[a] << "=" << va << " never meets " << kDimNames[b]
              << "=" << vb;
        }
      }
    }
  }
}

// Some draw's crashed reducer resumes from a checkpoint replica.
TEST(ConfigSpaceCoverage, SomeDrawRestoresACheckpoint) {
  for (const Draw& d : Draws()) {
    if (d.fault == kLostReplicas || d.cfg.faults.crashes.empty() ||
        d.cfg.checkpoint_interval_segments == 0) {
      continue;
    }
    const Result<JobResult> r = RunAt(d, d.cfg, BuildInput(d), d.tier);
    ASSERT_TRUE(r.ok()) << Describe(d) << ": " << r.status().ToString();
    if (r->metrics.checkpoints_restored > 0) return;
  }
  ADD_FAILURE() << "no draw restored a checkpoint";
}

// The paper's cost claim at small scale: on a memory-constrained
// sessionization the hash engines spill less than sort-merge.
TEST(EngineComparison, HashEnginesSpillLess) {
  std::vector<uint64_t> spilled;
  for (const EngineKind e : {EngineKind::kSortMerge, EngineKind::kIncHash,
                             EngineKind::kDincHash}) {
    Draw d = SmallBase(Workload::kSessions, e);
    // 40,000 clicks over ~5.5 simulated hours: cold users' sessions expire
    // before their monitored slot is recycled, the regime where DINC's
    // eviction hook discards instead of spilling (§6.2).
    d.input.records = 40'000;
    d.input.clicks_per_second = 2;
    d.cfg.reduce_memory_bytes = 48 << 10;  // tight memory: spills expected
    d.cfg.expected_keys_per_reducer = 120;
    const Result<JobResult> r = RunAt(d, d.cfg, BuildInput(d), d.tier);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    spilled.push_back(r->metrics.reduce_spill_write_bytes);
  }
  EXPECT_GT(spilled[0], 0u);
  EXPECT_LT(spilled[1], spilled[0]);
  // DINC's eviction hook discards expired sessions instead of spilling.
  EXPECT_LT(spilled[2], spilled[1]);
}

// On the Zipf'd trigram workload the encoded intermediate plane is at most
// half the raw one, with the same answer.
TEST(CodecZipfWordCount, IntermediateBytesDropAtLeastTwofold) {
  ChunkStore input(256 << 10, 3, 1);
  GenerateDocuments({.num_records = 6'000, .words_per_record = 20,
                     .vocabulary = 40'000, .word_skew = 1.0,
                     .seed = 20110614},
                    &input);
  JobConfig cfg;
  cfg.engine = EngineKind::kSortMerge;  // the spill-heaviest engine
  cfg.cluster = {.nodes = 3, .cores_per_node = 2, .map_slots = 2,
                 .reduce_slots = 2};
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = 256 << 10;
  cfg.map_buffer_bytes = 128 << 10;    // forces map-side spill runs
  cfg.reduce_memory_bytes = 64 << 10;  // forces reduce-side runs
  cfg.merge_factor = 4;
  cfg.collect_outputs = true;
  const JobSpec spec = TrigramCountJob(/*threshold=*/5);
  auto plain = LocalCluster::RunJob(spec, cfg, input);
  cfg.block_codec = BlockCodecKind::kLz;
  auto coded = LocalCluster::RunJob(spec, cfg, input);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(coded.ok()) << coded.status().ToString();
  ExpectSame(SortedOutputs(*coded), SortedOutputs(*plain),
             "kLz changed the answer");
  const uint64_t raw = IntermediateBytes(plain->metrics);
  const uint64_t enc = IntermediateBytes(coded->metrics);
  EXPECT_GE(raw, 2 * enc) << "raw=" << raw << " encoded=" << enc;
}

}  // namespace
}  // namespace onepass
