// Unit tests for the map task runner: sort path (spills, external merge,
// combiner), hash paths (partition grouping, init, map-side combine), and
// pipelining pushes.

#include "src/mr/map_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/sim/fault_injector.h"
#include "src/util/random.h"
#include "src/workloads/count_workloads.h"

namespace onepass {
namespace {

class IdentityMapper : public Mapper {
 public:
  void Map(std::string_view key, std::string_view value,
           Emitter* out) override {
    out->Emit(key, value);
  }
};

KvBuffer MakeChunk(int records, int key_space, size_t value_bytes = 32) {
  KvBuffer chunk;
  for (int i = 0; i < records; ++i) {
    chunk.Append("k" + std::to_string(i % key_space),
                 std::string(value_bytes, 'v'));
  }
  return chunk;
}

JobConfig BaseConfig(EngineKind engine) {
  JobConfig cfg;
  cfg.engine = engine;
  cfg.map_buffer_bytes = 64 << 10;
  return cfg;
}

// Gathers (key, count) over all partitions of all pushes.
std::map<std::string, uint64_t> AllRecords(const MapTaskOutput& out) {
  std::map<std::string, uint64_t> m;
  for (const auto& push : out.pushes) {
    for (const auto& part : push.partitions) {
      KvBufferReader reader(part);
      std::string_view k, v;
      while (reader.Next(&k, &v)) ++m[std::string(k)];
    }
  }
  return m;
}

TEST(MapRunnerTest, ModeSelection) {
  JobConfig cfg;
  cfg.engine = EngineKind::kSortMerge;
  EXPECT_EQ(SelectMapOutputMode(cfg, false), MapOutputMode::kSortRaw);
  cfg.map_side_combine = true;
  EXPECT_EQ(SelectMapOutputMode(cfg, true), MapOutputMode::kSortCombine);
  cfg.engine = EngineKind::kMRHash;
  cfg.map_side_combine = false;
  EXPECT_EQ(SelectMapOutputMode(cfg, true), MapOutputMode::kHashRaw);
  cfg.map_side_combine = true;
  EXPECT_EQ(SelectMapOutputMode(cfg, true), MapOutputMode::kHashCombine);
  cfg.engine = EngineKind::kIncHash;
  cfg.map_side_combine = false;
  EXPECT_EQ(SelectMapOutputMode(cfg, true), MapOutputMode::kHashInit);
}

TEST(MapRunnerTest, SortPathSortsWithinPartitions) {
  const JobConfig cfg = BaseConfig(EngineKind::kSortMerge);
  IdentityMapper mapper;
  UniversalHashFamily family(1);
  MapRunner runner(cfg, MapOutputMode::kSortRaw, family.At(0), 4, &mapper,
                   nullptr);
  auto out = runner.Run(MakeChunk(500, 50));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->sorted);
  ASSERT_EQ(out->pushes.size(), 1u);
  for (const auto& part : out->pushes[0].partitions) {
    KvBufferReader reader(part);
    std::string_view k, v, prev;
    std::string prev_owned;
    while (reader.Next(&k, &v)) {
      EXPECT_LE(prev_owned, std::string(k));
      prev_owned = std::string(k);
      (void)prev;
    }
  }
}

TEST(MapRunnerTest, SortPathPreservesEveryRecord) {
  const JobConfig cfg = BaseConfig(EngineKind::kSortMerge);
  IdentityMapper mapper;
  UniversalHashFamily family(1);
  MapRunner runner(cfg, MapOutputMode::kSortRaw, family.At(0), 8, &mapper,
                   nullptr);
  auto out = runner.Run(MakeChunk(1000, 100));
  ASSERT_TRUE(out.ok());
  const auto all = AllRecords(*out);
  uint64_t total = 0;
  for (const auto& [k, c] : all) total += c;
  EXPECT_EQ(total, 1000u);
  EXPECT_EQ(all.size(), 100u);
  EXPECT_EQ(out->metrics.map_output_records, 1000u);
}

TEST(MapRunnerTest, SortPathSpillsOnSmallBuffer) {
  JobConfig cfg = BaseConfig(EngineKind::kSortMerge);
  cfg.map_buffer_bytes = 2 << 10;  // forces external sort
  cfg.merge_factor = 3;
  IdentityMapper mapper;
  UniversalHashFamily family(1);
  MapRunner runner(cfg, MapOutputMode::kSortRaw, family.At(0), 4, &mapper,
                   nullptr);
  auto out = runner.Run(MakeChunk(2000, 100, 64));
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out->metrics.map_spill_write_bytes, 0u);
  EXPECT_GT(out->metrics.map_spill_read_bytes, 0u);
  // Output is still complete and sorted.
  uint64_t total = 0;
  for (const auto& [k, c] : AllRecords(*out)) total += c;
  EXPECT_EQ(total, 2000u);
  EXPECT_TRUE(out->sorted);
}

TEST(MapRunnerTest, SortCombineCollapsesKeys) {
  JobConfig cfg = BaseConfig(EngineKind::kSortMerge);
  cfg.map_side_combine = true;
  CountingIncReducer inc(0);
  // Emit count-states through a counting map.
  class CountMapper : public Mapper {
   public:
    void Map(std::string_view key, std::string_view, Emitter* out) override {
      out->Emit(key, EncodeCountState(1, false));
    }
  } mapper;
  UniversalHashFamily family(1);
  MapRunner runner(cfg, MapOutputMode::kSortCombine, family.At(0), 4,
                   &mapper, &inc);
  auto out = runner.Run(MakeChunk(1000, 10));
  ASSERT_TRUE(out.ok());
  // 1000 records over 10 keys collapse to 10 output records.
  EXPECT_EQ(out->metrics.map_output_records, 10u);
  // Each carries the full count.
  uint64_t total_count = 0;
  for (const auto& push : out->pushes) {
    for (const auto& part : push.partitions) {
      KvBufferReader reader(part);
      std::string_view k, v;
      while (reader.Next(&k, &v)) {
        uint64_t c = 0;
        bool e = false;
        ASSERT_TRUE(DecodeCountState(v, &c, &e));
        total_count += c;
      }
    }
  }
  EXPECT_EQ(total_count, 1000u);
}

TEST(MapRunnerTest, HashRawGroupsByPartitionWithoutSorting) {
  const JobConfig cfg = BaseConfig(EngineKind::kMRHash);
  IdentityMapper mapper;
  UniversalHashFamily family(1);
  MapRunner runner(cfg, MapOutputMode::kHashRaw, family.At(0), 4, &mapper,
                   nullptr);
  auto out = runner.Run(MakeChunk(500, 50));
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->sorted);
  uint64_t total = 0;
  for (const auto& [k, c] : AllRecords(*out)) total += c;
  EXPECT_EQ(total, 500u);
  // Partition routing must agree with the partitioner.
  const UniversalHash h1 = family.At(0);
  for (size_t p = 0; p < out->pushes[0].partitions.size(); ++p) {
    KvBufferReader reader(out->pushes[0].partitions[p]);
    std::string_view k, v;
    while (reader.Next(&k, &v)) {
      EXPECT_EQ(h1.Bucket(k, 4), p);
    }
  }
}

TEST(MapRunnerTest, HashCombineProducesOneStatePerKeyPerFlush) {
  JobConfig cfg = BaseConfig(EngineKind::kIncHash);
  cfg.map_side_combine = true;
  CountingIncReducer inc(0);
  class CountMapper : public Mapper {
   public:
    void Map(std::string_view key, std::string_view, Emitter* out) override {
      out->Emit(key, EncodeCountState(1, false));
    }
  } mapper;
  UniversalHashFamily family(1);
  MapRunner runner(cfg, MapOutputMode::kHashCombine, family.At(0), 4,
                   &mapper, &inc);
  auto out = runner.Run(MakeChunk(4000, 20));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->metrics.map_output_records, 20u);
  EXPECT_LT(out->metrics.map_output_bytes, 4000u * 10);
}

TEST(MapRunnerTest, PipeliningPushesAtGranularity) {
  JobConfig cfg = BaseConfig(EngineKind::kSortMerge);
  cfg.pipelining = true;
  cfg.pipeline_push_bytes = 4 << 10;
  IdentityMapper mapper;
  UniversalHashFamily family(1);
  MapRunner runner(cfg, MapOutputMode::kSortRaw, family.At(0), 4, &mapper,
                   nullptr);
  auto out = runner.Run(MakeChunk(1000, 100, 64));
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out->pushes.size(), 4u);  // many small pushes
  // Gates are valid op indices in increasing order.
  uint32_t prev_gate = 0;
  for (const auto& push : out->pushes) {
    EXPECT_LT(push.gate_op, out->trace.ops.size());
    EXPECT_GE(push.gate_op, prev_gate);
    prev_gate = push.gate_op;
  }
  // All records still delivered.
  uint64_t total = 0;
  for (const auto& [k, c] : AllRecords(*out)) total += c;
  EXPECT_EQ(total, 1000u);
  // No map-side merge in pipelining mode: no spill accounting.
  EXPECT_EQ(out->metrics.map_spill_write_bytes, 0u);
}

TEST(MapRunnerTest, EmptyChunk) {
  const JobConfig cfg = BaseConfig(EngineKind::kSortMerge);
  IdentityMapper mapper;
  UniversalHashFamily family(1);
  MapRunner runner(cfg, MapOutputMode::kSortRaw, family.At(0), 4, &mapper,
                   nullptr);
  auto out = runner.Run(KvBuffer());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->pushes.size(), 1u);
  EXPECT_EQ(out->metrics.map_output_records, 0u);
}

TEST(MapRunnerTest, TraceStartsWithStartupAndInputRead) {
  const JobConfig cfg = BaseConfig(EngineKind::kSortMerge);
  IdentityMapper mapper;
  UniversalHashFamily family(1);
  MapRunner runner(cfg, MapOutputMode::kSortRaw, family.At(0), 2, &mapper,
                   nullptr);
  auto out = runner.Run(MakeChunk(10, 5));
  ASSERT_TRUE(out.ok());
  ASSERT_GE(out->trace.ops.size(), 3u);
  EXPECT_EQ(out->trace.ops[0].tag, OpTag::kStartup);
  EXPECT_EQ(out->trace.ops[1].tag, OpTag::kMapInput);
  EXPECT_TRUE(out->trace.ops[1].is_read);
}

// --- The tie rule: equal keys leave a map buffer in emit order ---

// An order-sensitive combiner: a state is its values concatenated in fold
// order, so any reordering of equal keys shows in the bytes.
class ConcatInc : public IncrementalReducer {
 public:
  std::string Init(std::string_view, std::string_view value) override {
    return std::string(value);
  }
  void Combine(std::string_view, std::string* state,
               std::string_view other) override {
    state->append(other.data(), other.size());
  }
  void Finalize(std::string_view key, std::string_view state,
                Emitter* out) override {
    out->Emit(key, state);
  }
};

// A fixed-width token naming emit `i`.
std::string Token(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "#%05d", i);
  return buf;
}

// `keys` keys, interleaved, `per_key` emits each; every value is its
// emit's token.
KvBuffer MakeTieChunk(int keys, int per_key) {
  KvBuffer chunk;
  for (int i = 0; i < keys * per_key; ++i) {
    chunk.Append("key" + std::to_string(i % keys), Token(i));
  }
  return chunk;
}

// Each key's values over every push, concatenated in push order.
std::map<std::string, std::string> ValuesPerKey(const MapTaskOutput& out) {
  std::map<std::string, std::string> m;
  for (const auto& push : out.pushes) {
    for (const auto& part : push.partitions) {
      KvBufferReader reader(part);
      std::string_view k, v;
      while (reader.Next(&k, &v)) m[std::string(k)].append(v);
    }
  }
  return m;
}

// What ValuesPerKey must read under the tie rule: each key's tokens in
// emit order, whether the buffer kept them (raw) or folded them (combine).
// The hash path publishes every flush in one push, each flush's records
// after the last's, so the rule holds across its flushes too.
std::map<std::string, std::string> EmitOrderPerKey(const KvBuffer& chunk) {
  std::map<std::string, std::string> m;
  KvBufferReader reader(chunk);
  std::string_view k, v;
  while (reader.Next(&k, &v)) m[std::string(k)].append(v);
  return m;
}

// A map task through 2 KB buffers. On the sort path, 3 keys x 400 emits
// put ~37 equal-key entries per key in each buffer, past the 16 below
// which introsort's insertion pass happens to keep them in order;
// `pipelined` pushes every buffer, otherwise the buffers spill as runs and
// merge. `inc` is the combiner, null under kSortRaw.
Result<MapTaskOutput> RunTieMap(MapOutputMode mode, bool pipelined,
                                IncrementalReducer* inc,
                                const KvBuffer& chunk) {
  JobConfig cfg = BaseConfig(mode == MapOutputMode::kHashCombine
                                 ? EngineKind::kIncHash
                                 : EngineKind::kSortMerge);
  cfg.map_side_combine = inc != nullptr;
  cfg.map_buffer_bytes = 2 << 10;
  cfg.pipelining = pipelined;
  cfg.pipeline_push_bytes = 2 << 10;
  IdentityMapper mapper;
  UniversalHashFamily family(1);
  MapRunner runner(cfg, mode, family.At(0), 4, &mapper, inc);
  return runner.Run(chunk);
}

TEST(MapRunnerTest, SortRawKeepsEqualKeysInEmitOrder) {
  const KvBuffer chunk = MakeTieChunk(3, 400);
  for (const bool pipelined : {false, true}) {
    SCOPED_TRACE(pipelined ? "pipelined" : "spilled");
    auto out = RunTieMap(MapOutputMode::kSortRaw, pipelined, nullptr, chunk);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    if (pipelined) {
      EXPECT_GT(out->pushes.size(), 4u);
    } else {
      EXPECT_EQ(out->pushes.size(), 1u);
      EXPECT_GT(out->metrics.map_spill_write_bytes, 0u);
    }
    EXPECT_EQ(out->metrics.map_output_records, chunk.count());
    EXPECT_EQ(ValuesPerKey(*out), EmitOrderPerKey(chunk));
  }
}

TEST(MapRunnerTest, SortCombineFoldsInEmitOrder) {
  const KvBuffer chunk = MakeTieChunk(3, 400);
  ConcatInc inc;
  for (const bool pipelined : {false, true}) {
    SCOPED_TRACE(pipelined ? "pipelined" : "spilled");
    auto out = RunTieMap(MapOutputMode::kSortCombine, pipelined, &inc, chunk);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    if (pipelined) {
      EXPECT_GT(out->pushes.size(), 4u);
    } else {
      EXPECT_EQ(out->pushes.size(), 1u);
      EXPECT_GT(out->metrics.map_spill_write_bytes, 0u);
      EXPECT_EQ(out->metrics.map_output_records, 3u);
    }
    EXPECT_EQ(ValuesPerKey(*out), EmitOrderPerKey(chunk));
  }
}

// 3 hot keys take the even emits, interleaved; each odd emit is a fresh
// 7-byte key. Every value is its emit's token.
KvBuffer MakeChurnChunk(int emits) {
  KvBuffer chunk;
  for (int i = 0; i < emits; ++i) {
    const std::string key =
        i % 2 == 0 ? "key" + std::to_string(i / 2 % 3) : "f" + Token(i);
    chunk.Append(key, Token(i));
  }
  return chunk;
}

// The hash path's fold table flushes on its footprint, key + state + 32
// bytes per distinct key: 42 bytes per hot key, 45 per fresh one. A flush
// holds the 3 hot keys and 43 fresh ones (126 + 43 x 45 = 2061 first
// reaches 2 KB), so it covers 86 emits, 14-15 folded into each hot key;
// 1,200 emits make 13 full flushes and a final one.
TEST(MapRunnerTest, HashCombineFoldsInEmitOrderAcrossFlushes) {
  const KvBuffer chunk = MakeChurnChunk(1200);
  ConcatInc inc;
  auto out = RunTieMap(MapOutputMode::kHashCombine, /*pipelined=*/false,
                       &inc, chunk);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(out->sorted);
  ASSERT_EQ(out->pushes.size(), 1u);
  EXPECT_EQ(out->metrics.map_output_records, 600u + 3 * 14);
  EXPECT_EQ(ValuesPerKey(*out), EmitOrderPerKey(chunk));
}

// Keys that stress the (partition, key) order: empty, sharing a 20-byte
// prefix, longer than 16 bytes, holding bytes >= 0x80 (which sort above
// ASCII: the order is unsigned) and embedding NULs.
std::string DrawKey(Xoshiro256StarStar* rng) {
  const std::string tail = std::to_string(rng->NextBounded(1000));
  switch (rng->NextBounded(6)) {
    case 0:
      return std::string();
    case 1:
      return std::string(20, 'p') + tail;
    case 2:
      return "a-key-longer-than-sixteen-bytes/" + tail;
    case 3:
      return std::string(1, static_cast<char>(0x80 + rng->NextBounded(128))) +
             tail;
    case 4:
      return std::string("n\0", 2) + tail + std::string(1, '\0');
    default:
      return tail;
  }
}

// The sort path against its contract, one seeded draw per case: mode,
// buffer size (one buffer, or spilled runs that merge) and a Zipf-ish
// multiset of drawn keys. The reference stable-sorts the emits by
// (partition, key) and, with a combiner, folds each key's run in order;
// the task's one push must hold exactly those bytes.
TEST(MapRunnerTest, SortBufferMatchesStableSortReference) {
  constexpr int kPartitions = 5;
  for (uint64_t seed = 0; seed < 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Xoshiro256StarStar rng(seed);
    const bool combine = (seed & 1) != 0;
    const bool spill = (seed & 2) != 0;
    std::vector<std::string> pool(1 + rng.NextBounded(60));
    for (std::string& key : pool) key = DrawKey(&rng);
    KvBuffer chunk;
    const int records = 200 + static_cast<int>(rng.NextBounded(1800));
    for (int i = 0; i < records; ++i) {
      // Squaring the draw skews the pool toward its first keys.
      const double u = rng.NextDouble();
      chunk.Append(pool[static_cast<size_t>(u * u * pool.size())], Token(i));
    }

    JobConfig cfg = BaseConfig(EngineKind::kSortMerge);
    cfg.map_side_combine = combine;
    cfg.map_buffer_bytes = spill ? 512 + rng.NextBounded(4096) : 1 << 20;
    const MapOutputMode mode =
        combine ? MapOutputMode::kSortCombine : MapOutputMode::kSortRaw;
    IdentityMapper mapper;
    ConcatInc inc;
    UniversalHashFamily family(seed);
    const UniversalHash h1 = family.At(0);
    MapRunner runner(cfg, mode, h1, kPartitions, &mapper,
                     combine ? &inc : nullptr);
    auto out = runner.Run(chunk);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_EQ(out->pushes.size(), 1u);
    EXPECT_EQ(out->metrics.map_spill_write_bytes > 0, spill);

    struct Emitted {
      uint64_t part;
      std::string key;
      std::string value;
    };
    std::vector<Emitted> emits;
    KvBufferReader reader(chunk);
    std::string_view k, v;
    while (reader.Next(&k, &v)) {
      emits.push_back({h1.Bucket(k, kPartitions), std::string(k),
                       std::string(v)});
    }
    std::stable_sort(emits.begin(), emits.end(),
                     [](const Emitted& a, const Emitted& b) {
                       if (a.part != b.part) return a.part < b.part;
                       return a.key < b.key;
                     });
    std::vector<KvBuffer> want(kPartitions);
    for (size_t i = 0; i < emits.size();) {
      size_t j = i + 1;
      std::string value = emits[i].value;
      for (; combine && j < emits.size() && emits[j].part == emits[i].part &&
             emits[j].key == emits[i].key;
           ++j) {
        value += emits[j].value;
      }
      want[emits[i].part].Append(emits[i].key, value);
      i = j;
    }
    const PushSegment& got = out->pushes[0];
    ASSERT_EQ(got.partitions.size(), want.size());
    for (int p = 0; p < kPartitions; ++p) {
      EXPECT_EQ(got.partitions[p].data(), want[p].data()) << "partition " << p;
    }
  }
}

// --- Verified spill-run reads, on both codecs ---

constexpr BlockCodecKind kCodecs[] = {BlockCodecKind::kNone,
                                      BlockCodecKind::kLz};

// A sort-path map that spills many runs (2 KB buffer, 2,000 64-byte
// records) under `codec`, with `faults` (may be null) corrupting them.
Result<MapTaskOutput> RunSpillingMap(BlockCodecKind codec,
                                     const sim::FaultPlan* faults) {
  JobConfig cfg = BaseConfig(EngineKind::kSortMerge);
  cfg.map_buffer_bytes = 2 << 10;
  cfg.block_codec = codec;
  IdentityMapper mapper;
  UniversalHashFamily family(1);
  MapRunner runner(cfg, MapOutputMode::kSortRaw, family.At(0), 4, &mapper,
                   nullptr, faults, /*task_index=*/3);
  return runner.Run(MakeChunk(2000, 100, 64));
}

uint64_t TracedSpillBytes(const MapTaskOutput& out) {
  uint64_t bytes = 0;
  for (const TraceOp& op : out.trace.ops) {
    if (op.resource == OpResource::kDisk && op.tag == OpTag::kMapSpill) {
      bytes += op.bytes;
    }
  }
  return bytes;
}

TEST(MapRunnerTest, CorruptSpillRunsAreRebuiltOnBothCodecs) {
  for (const BlockCodecKind codec : kCodecs) {
    SCOPED_TRACE(std::string(BlockCodecName(codec)));
    auto clean = RunSpillingMap(codec, nullptr);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    ASSERT_GT(clean->metrics.map_spill_write_bytes, 0u);

    sim::FaultConfig fc;
    fc.corruption_rate = 0.999999;  // every run draws the capped chain, 3
    fc.torn_writes = true;
    const sim::FaultPlan plan(fc, /*seed=*/5);
    auto faulted = RunSpillingMap(codec, &plan);
    ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();

    // The rebuilds recover every run: the map output is the clean run's.
    ASSERT_EQ(faulted->pushes.size(), 1u);
    ASSERT_EQ(clean->pushes.size(), 1u);
    const PushSegment& got = faulted->pushes[0];
    const PushSegment& want = clean->pushes[0];
    ASSERT_EQ(got.partitions.size(), want.partitions.size());
    for (size_t p = 0; p < want.partitions.size(); ++p) {
      EXPECT_EQ(got.partitions[p].data(), want.partitions[p].data());
    }
    EXPECT_EQ(got.encoded, want.encoded);
    EXPECT_EQ(codec == BlockCodecKind::kLz, !got.encoded.empty());

    EXPECT_GT(faulted->metrics.corruptions_detected, 0u);
    EXPECT_EQ(faulted->metrics.corruptions_recovered,
              faulted->metrics.corruptions_detected);
    // Each run is read three times damaged and once clean, and every
    // verified read counts.
    EXPECT_EQ(faulted->metrics.verify_bytes,
              4 * clean->metrics.verify_bytes);
    // Each rebuild rewrites and re-reads its run on the time plane.
    EXPECT_EQ(TracedSpillBytes(*faulted),
              TracedSpillBytes(*clean) +
                  faulted->metrics.corruption_recovery_bytes);
  }
}

}  // namespace
}  // namespace onepass
