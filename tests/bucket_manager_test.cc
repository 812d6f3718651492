#include "src/storage/bucket_manager.h"

#include <string>

#include <gtest/gtest.h>

#include "src/sim/fault_injector.h"
#include "src/storage/framed_io.h"

namespace onepass {
namespace {

// Every case runs once per codec: raw bucket files and LZ block streams.
constexpr BlockCodecKind kCodecs[] = {BlockCodecKind::kNone,
                                      BlockCodecKind::kLz};

struct Harness {
  CostTrace trace_storage;
  TraceRecorder trace{&trace_storage};
  JobMetrics metrics;
  CostModel costs;

  BucketFileManager Manager(BlockCodecKind codec, int buckets,
                            uint64_t page_bytes,
                            const sim::FaultPlan* plan = nullptr,
                            uint64_t owner = 0) {
    return BucketFileManager(buckets, page_bytes, &trace, &metrics, plan,
                             owner, &costs, codec);
  }
};

TEST(BucketManagerTest, PagesFlushWhenFull) {
  for (const BlockCodecKind codec : kCodecs) {
    SCOPED_TRACE(std::string(BlockCodecName(codec)));
    Harness h;
    BucketFileManager mgr = h.Manager(codec, 2, /*page_bytes=*/100);
    // Small appends stay buffered.
    mgr.Add(0, "k", std::string(20, 'v'));
    EXPECT_EQ(mgr.spilled_bytes(), 0u);
    EXPECT_GT(mgr.buffered_bytes(), 0u);
    // Crossing the page size flushes.
    for (int i = 0; i < 10; ++i) mgr.Add(0, "k", std::string(20, 'v'));
    EXPECT_GT(mgr.spilled_bytes(), 0u);
    EXPECT_EQ(h.metrics.reduce_spill_write_bytes, mgr.spilled_bytes());
  }
}

TEST(BucketManagerTest, FlushAllThenTakeRoundTrips) {
  std::string raw_contents;
  for (const BlockCodecKind codec : kCodecs) {
    SCOPED_TRACE(std::string(BlockCodecName(codec)));
    Harness h;
    BucketFileManager mgr = h.Manager(codec, 4, 64);
    for (int i = 0; i < 100; ++i) {
      mgr.Add(i % 4, "key" + std::to_string(i), "value");
    }
    mgr.FlushAll();
    EXPECT_EQ(mgr.buffered_bytes(), 0u);
    EXPECT_EQ(mgr.spilled_records(), 100u);

    uint64_t records = 0;
    std::string contents;
    for (int b = 0; b < 4; ++b) {
      Result<KvBuffer> data = mgr.TakeBucket(b);
      ASSERT_TRUE(data.ok()) << data.status().ToString();
      records += data.value().count();
      contents += data.value().data();
    }
    EXPECT_EQ(records, 100u);
    // Read accounting matches write accounting.
    EXPECT_EQ(h.metrics.reduce_spill_read_bytes,
              h.metrics.reduce_spill_write_bytes);
    // The codec changes the bytes on disk, never the records read back.
    if (codec == BlockCodecKind::kNone) raw_contents = contents;
    EXPECT_EQ(contents, raw_contents);
  }
}

TEST(BucketManagerTest, EveryFlushIsOneRequest) {
  for (const BlockCodecKind codec : kCodecs) {
    SCOPED_TRACE(std::string(BlockCodecName(codec)));
    Harness h;
    BucketFileManager mgr = h.Manager(codec, 1, 128);
    for (int i = 0; i < 50; ++i) mgr.Add(0, "k", std::string(30, 'x'));
    mgr.FlushAll();
    for (const TraceOp& op : h.trace_storage.ops) {
      EXPECT_EQ(op.requests, 1u);
      EXPECT_EQ(op.tag, OpTag::kReduceSpill);
    }
    EXPECT_GT(h.trace_storage.ops.size(), 5u);
  }
}

TEST(BucketManagerTest, TakeEmptyBucketChargesNothing) {
  for (const BlockCodecKind codec : kCodecs) {
    SCOPED_TRACE(std::string(BlockCodecName(codec)));
    Harness h;
    BucketFileManager mgr = h.Manager(codec, 2, 64);
    mgr.FlushAll();
    Result<KvBuffer> data = mgr.TakeBucket(1);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    EXPECT_TRUE(data.value().empty());
    EXPECT_EQ(h.metrics.reduce_spill_read_bytes, 0u);
    EXPECT_TRUE(h.trace_storage.ops.empty());
  }
}

// --- Integrity: corrupt bucket files are detected and rebuilt ---

void FillBuckets(BucketFileManager* mgr, int buckets) {
  for (int i = 0; i < 120; ++i) {
    mgr->Add(i % buckets, "key" + std::to_string(i),
             "value" + std::to_string(i));
  }
  mgr->FlushAll();
}

TEST(BucketManagerTest, CorruptBucketIsDetectedAndRebuilt) {
  for (const BlockCodecKind codec : kCodecs) {
    SCOPED_TRACE(std::string(BlockCodecName(codec)));
    Harness h;
    sim::FaultConfig fc;
    fc.corruption_rate = 0.999999;  // every bucket stream fires
    fc.torn_writes = true;
    const sim::FaultPlan plan(fc, /*seed=*/5);
    BucketFileManager mgr = h.Manager(codec, 4, 64, &plan, /*owner=*/42);
    FillBuckets(&mgr, 4);

    uint64_t records = 0;
    for (int b = 0; b < 4; ++b) {
      Result<KvBuffer> data = mgr.TakeBucket(b);
      ASSERT_TRUE(data.ok()) << data.status().ToString();
      records += data.value().count();
    }
    // Rebuilds recovered every bucket; nothing was lost.
    EXPECT_EQ(records, 120u);
    EXPECT_GT(h.metrics.corruptions_detected, 0u);
    EXPECT_EQ(h.metrics.corruptions_recovered,
              h.metrics.corruptions_detected);
    EXPECT_GT(h.metrics.corruption_recovery_bytes, 0u);
    // Every verified read counts: three damaged generations per file plus
    // the clean one.
    EXPECT_EQ(h.metrics.verify_bytes, 4 * h.metrics.reduce_spill_read_bytes);
    EXPECT_GT(h.metrics.torn_writes_detected, 0u);
    // Rebuild traffic is charged to the time plane: the trace carries more
    // spill-read bytes than the plain take path accounts for, and exactly
    // half of each rebuild's 2x (write + read) byte bill is a read.
    uint64_t traced_read_bytes = 0;
    for (const TraceOp& op : h.trace_storage.ops) {
      if (op.resource == OpResource::kDisk && op.is_read &&
          op.tag == OpTag::kReduceSpill) {
        traced_read_bytes += op.bytes;
      }
    }
    EXPECT_EQ(traced_read_bytes, h.metrics.reduce_spill_read_bytes +
                                     h.metrics.corruption_recovery_bytes / 2);
  }
}

TEST(BucketManagerTest, ZeroRatePlanKeepsTraceIdenticalToNoPlan) {
  // A fault plan with a zero corruption rate must not perturb the time
  // plane: the recorded trace ops match a plan-free manager's exactly.
  for (const BlockCodecKind codec : kCodecs) {
    SCOPED_TRACE(std::string(BlockCodecName(codec)));
    Harness plain, checked;
    sim::FaultConfig fc;  // rate 0
    const sim::FaultPlan plan(fc, /*seed=*/9);
    BucketFileManager a = plain.Manager(codec, 4, 64);
    BucketFileManager b = checked.Manager(codec, 4, 64, &plan, /*owner=*/1);
    FillBuckets(&a, 4);
    FillBuckets(&b, 4);
    for (int bkt = 0; bkt < 4; ++bkt) {
      ASSERT_TRUE(a.TakeBucket(bkt).ok());
      ASSERT_TRUE(b.TakeBucket(bkt).ok());
    }
    ASSERT_EQ(plain.trace_storage.ops.size(),
              checked.trace_storage.ops.size());
    for (size_t i = 0; i < plain.trace_storage.ops.size(); ++i) {
      EXPECT_EQ(plain.trace_storage.ops[i].bytes,
                checked.trace_storage.ops[i].bytes);
      EXPECT_EQ(plain.trace_storage.ops[i].tag,
                checked.trace_storage.ops[i].tag);
    }
    // Both verified the same bytes (metrics-only accounting) and found
    // nothing.
    EXPECT_GT(checked.metrics.verify_bytes, 0u);
    EXPECT_GT(checked.metrics.checksum_overhead_bytes, 0u);
    EXPECT_EQ(plain.metrics.verify_bytes, checked.metrics.verify_bytes);
    EXPECT_EQ(plain.metrics.checksum_overhead_bytes,
              checked.metrics.checksum_overhead_bytes);
    EXPECT_EQ(checked.metrics.corruptions_detected, 0u);
  }
}

}  // namespace
}  // namespace onepass
