// Unit tests for the map task runner: sort path (spills, external merge,
// combiner), hash paths (partition grouping, init, map-side combine), and
// pipelining pushes.

#include "src/mr/map_runner.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/sim/fault_injector.h"
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
