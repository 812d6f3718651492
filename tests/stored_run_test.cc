#include "src/storage/stored_run.h"

#include <string>

#include <gtest/gtest.h>

#include "src/storage/framed_io.h"

namespace onepass {
namespace {

constexpr BlockCodecKind kCodecs[] = {BlockCodecKind::kNone,
                                      BlockCodecKind::kLz};

KvBuffer Records(int first, int count) {
  KvBuffer records;
  for (int i = first; i < first + count; ++i) {
    records.Append("key" + std::to_string(i / 3), std::string(40, 'v'));
  }
  return records;
}

RunCodec Codec(BlockCodecKind kind, const CostModel* costs) {
  return RunCodec(kind, BlockEncoding::kPrefix, costs,
                  RunCodec::Family::kReduceSpill);
}

TEST(StoredRunTest, AppendsReadBackExactly) {
  const CostModel costs;
  for (const BlockCodecKind kind : kCodecs) {
    SCOPED_TRACE(std::string(BlockCodecName(kind)));
    StoredRun run(Codec(kind, &costs));
    CodecStats stats;
    const KvBuffer first = Records(0, 50);
    uint64_t disk = run.Append(first, &stats);
    disk += run.Append(Records(50, 70), &stats);
    KvBuffer want = Records(0, 120);
    EXPECT_EQ(run.disk_bytes(), disk);
    EXPECT_EQ(run.raw_bytes(), want.bytes());
    EXPECT_EQ(run.records(), want.count());
    if (kind == BlockCodecKind::kNone) {
      EXPECT_EQ(run.image(), want.data());
    } else {
      EXPECT_LT(run.disk_bytes(), run.raw_bytes());
      EXPECT_EQ(stats.raw_bytes, want.bytes());
      EXPECT_EQ(stats.encoded_bytes, run.disk_bytes());
    }
    Result<KvBuffer> loaded = run.Load(&stats);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->data(), want.data());
    EXPECT_EQ(loaded->count(), want.count());
    Result<KvBuffer> taken = run.Take(&stats);
    ASSERT_TRUE(taken.ok()) << taken.status().ToString();
    EXPECT_EQ(taken->data(), want.data());
    EXPECT_EQ(run.disk_bytes(), 0u);
    EXPECT_EQ(run.raw_bytes(), 0u);
    EXPECT_EQ(run.records(), 0u);
  }
}

TEST(StoredRunTest, CheckpointRoundTripKeepsTheImage) {
  const CostModel costs;
  for (const BlockCodecKind kind : kCodecs) {
    SCOPED_TRACE(std::string(BlockCodecName(kind)));
    StoredRun run(Codec(kind, &costs));
    run.Append(Records(0, 80), nullptr);
    CheckpointWriter w;
    run.SaveTo(&w, "run", "0");
    CheckpointReader r(w.fields());
    StoredRun restored(Codec(kind, &costs));
    ASSERT_TRUE(restored.RestoreFrom(&r, "run", "0").ok());
    EXPECT_EQ(restored.image(), run.image());
    EXPECT_EQ(restored.raw_bytes(), run.raw_bytes());
    EXPECT_EQ(restored.records(), run.records());
    CheckpointWriter again;
    restored.SaveTo(&again, "run", "0");
    EXPECT_EQ(again.fields().data(), w.fields().data());
  }
}

TEST(StoredRunTest, OnlyACodecChargesCodecWork) {
  const CostModel costs;
  for (const BlockCodecKind kind : kCodecs) {
    SCOPED_TRACE(std::string(BlockCodecName(kind)));
    const RunCodec codec = Codec(kind, &costs);
    StoredRun run(codec);
    CodecStats stats;
    run.Append(Records(0, 60), &stats);
    CostTrace trace_storage;
    TraceRecorder trace(&trace_storage);
    JobMetrics metrics;
    codec.ChargeEncode(stats, OpTag::kReduceSpill, &trace, &metrics);
    if (kind == BlockCodecKind::kNone) {
      EXPECT_TRUE(trace_storage.ops.empty());
      EXPECT_EQ(metrics.codec_reduce_spill_raw_bytes, 0u);
    } else {
      ASSERT_EQ(trace_storage.ops.size(), 1u);
      EXPECT_EQ(trace_storage.ops[0].resource, OpResource::kCpu);
      EXPECT_EQ(metrics.codec_reduce_spill_raw_bytes, run.raw_bytes());
      EXPECT_EQ(metrics.codec_reduce_spill_encoded_bytes, run.disk_bytes());
    }
  }
}

TEST(StoredRunTest, VerifiedReadCountsEveryGeneration) {
  const std::string image(5000, 'x');
  sim::FaultConfig fc;
  fc.corruption_rate = 0.999999;  // the capped chain: three bad copies
  const sim::FaultPlan plan(fc, /*seed=*/3);
  CostTrace trace_storage;
  TraceRecorder trace(&trace_storage);
  JobMetrics metrics;
  const StreamSite site{sim::StreamKind::kBucketFile, /*owner=*/1,
                        /*index=*/2, OpTag::kReduceSpill};
  VerifiedRead(image, site, &plan, &trace, &metrics);
  EXPECT_EQ(metrics.verify_bytes, 4 * image.size());
  EXPECT_EQ(metrics.corruptions_detected, 3u);
  EXPECT_EQ(metrics.corruptions_recovered, 3u);
  EXPECT_EQ(metrics.corruption_recovery_bytes, 6 * image.size());
  // Each rebuild is one write and one read at the site's tag, with no
  // stall between them.
  ASSERT_EQ(trace_storage.ops.size(), 6u);
  for (const TraceOp& op : trace_storage.ops) {
    EXPECT_EQ(op.tag, OpTag::kReduceSpill);
    EXPECT_EQ(op.bytes, image.size());
  }

  // Over many streams at that rate, every drawn generation is rebuilt:
  // no stream has a budget to run out of.
  for (uint64_t owner = 0; owner < 64; ++owner) {
    JobMetrics m;
    CostTrace ops;
    TraceRecorder rec(&ops);
    const StreamSite s{sim::StreamKind::kMapSpillRun, owner, owner % 5,
                       OpTag::kMapSpill};
    VerifiedRead(image, s, &plan, &rec, &m);
    const uint64_t chain = static_cast<uint64_t>(
        plan.CorruptionChain(s.kind, s.owner, s.index));
    EXPECT_EQ(m.corruptions_detected, chain) << owner;
    EXPECT_EQ(m.corruptions_recovered, chain) << owner;
    EXPECT_EQ(ops.ops.size(), 2 * chain) << owner;
  }

  // A clean read, with a rate-0 plan or none, verifies the image once and
  // stays off the time plane: verification is metrics-only.
  const std::string clean(70000, 'y');  // three 32 KB blocks
  const sim::FaultPlan zero(sim::FaultConfig{}, /*seed=*/3);
  const sim::FaultPlan* const plans[] = {&zero, nullptr};
  for (const sim::FaultPlan* p : plans) {
    SCOPED_TRACE(p == nullptr ? "null plan" : "rate-0 plan");
    JobMetrics m;
    CostTrace ops;
    TraceRecorder rec(&ops);
    VerifiedRead(clean, site, p, &rec, &m);
    EXPECT_TRUE(ops.ops.empty());
    EXPECT_EQ(m.verify_bytes, clean.size());
    EXPECT_EQ(m.checksum_overhead_bytes,
              FramedOverheadBytes(clean.size(), IntegrityConfig::block_bytes));
    EXPECT_EQ(m.corruptions_detected, 0u);
  }
}

}  // namespace
}  // namespace onepass
