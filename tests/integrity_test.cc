// End-to-end data integrity (DESIGN.md §5.2): silent corruption injected
// into every framed stream kind is detected at a read boundary and
// recovered along the cheapest path — replica fail-over for DFS chunks,
// map re-execution for corrupt map outputs, re-fetch for wire corruption,
// rebuilds for spill runs and hash buckets — with reference-equal output.
// With the rate at zero, checksums must be invisible: results, traces and
// fault schedules stay byte-identical to a checksum-free run.

#include <gtest/gtest.h>

#include "src/mr/cluster.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/jobs.h"
#include "src/workloads/reference.h"
#include "tests/fault_test_util.h"

namespace onepass {
namespace {

TEST(IntegrityTest, AllEnginesRecoverReferenceEqualOutput) {
  const ChunkStore input = FaultInput(/*replication=*/3);
  const auto expected = ReferenceClickCounts(input, ClickKeyField::kUser);
  for (EngineKind engine : kAllEngines) {
    JobConfig cfg = FaultConfigFor(engine, 3);
    cfg.faults.corruption_rate = 0.05;
    cfg.faults.torn_writes = true;
    auto r = LocalCluster::RunJob(ClickCountJob(), cfg, input);
    ASSERT_TRUE(r.ok()) << EngineKindName(engine) << ": "
                        << r.status().ToString();
    EXPECT_EQ(CountsOf(r->outputs), expected) << EngineKindName(engine);
    const JobMetrics& m = r->metrics;
    // At a 5% rate across thousands of streams something must fire, and
    // everything that fired must have been recovered.
    EXPECT_GT(m.corruptions_detected, 0u) << EngineKindName(engine);
    EXPECT_EQ(m.corruptions_recovered, m.corruptions_detected)
        << EngineKindName(engine);
    EXPECT_GT(m.verify_bytes, 0u);
  }
}

TEST(IntegrityTest, ZeroRateChecksumsAreInvisibleToResults) {
  const ChunkStore input = FaultInput(/*replication=*/2);
  for (EngineKind engine : kAllEngines) {
    JobConfig on = FaultConfigFor(engine, 2);
    // A fault plan with crashes and retries exercises the scheduler; the
    // schedules must not move when checksums turn off.
    sim::CrashEvent crash;
    crash.node = 2;
    crash.at_map_fraction = 0.5;
    on.faults.crashes = {crash};
    on.faults.fetch_failure_rate = 0.05;
    on.faults.speculative_execution = true;
    JobConfig off = on;
    on.integrity.checksums = true;
    off.integrity.checksums = false;

    auto a = LocalCluster::RunJob(ClickCountJob(), on, input);
    auto b = LocalCluster::RunJob(ClickCountJob(), off, input);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    // Byte-identical results and identical timing/fault schedules.
    EXPECT_EQ(CountsOf(a->outputs), CountsOf(b->outputs))
        << EngineKindName(engine);
    EXPECT_DOUBLE_EQ(a->running_time, b->running_time)
        << EngineKindName(engine);
    EXPECT_DOUBLE_EQ(a->map_finish_time, b->map_finish_time);
    EXPECT_EQ(a->metrics.map_task_attempts, b->metrics.map_task_attempts);
    EXPECT_EQ(a->metrics.reduce_task_attempts,
              b->metrics.reduce_task_attempts);
    EXPECT_EQ(a->metrics.shuffle_fetch_retries,
              b->metrics.shuffle_fetch_retries);
    EXPECT_EQ(a->metrics.killed_attempts, b->metrics.killed_attempts);
    EXPECT_EQ(a->shuffle_from_disk_bytes, b->shuffle_from_disk_bytes);
    // The only difference: the checksummed run verified data.
    EXPECT_GT(a->metrics.verify_bytes, 0u);
    EXPECT_EQ(a->metrics.corruptions_detected, 0u);
    EXPECT_EQ(b->metrics.verify_bytes, 0u);
  }
}

TEST(IntegrityTest, RecoveryTraceIsDeterministic) {
  const ChunkStore input = FaultInput(/*replication=*/3);
  for (EngineKind engine : {EngineKind::kSortMerge, EngineKind::kIncHash}) {
    JobConfig cfg = FaultConfigFor(engine, 3);
    cfg.faults.corruption_rate = 0.08;
    cfg.faults.torn_writes = true;
    auto a = LocalCluster::RunJob(ClickCountJob(), cfg, input);
    auto b = LocalCluster::RunJob(ClickCountJob(), cfg, input);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    // Same seed, same plan: identical recovery, byte for byte.
    EXPECT_EQ(a->metrics.corruptions_detected, b->metrics.corruptions_detected);
    EXPECT_EQ(a->metrics.corruptions_recovered,
              b->metrics.corruptions_recovered);
    EXPECT_EQ(a->metrics.torn_writes_detected, b->metrics.torn_writes_detected);
    EXPECT_EQ(a->metrics.quarantined_replicas, b->metrics.quarantined_replicas);
    EXPECT_EQ(a->metrics.rereplicated_bytes, b->metrics.rereplicated_bytes);
    EXPECT_EQ(a->metrics.corruption_recovery_bytes,
              b->metrics.corruption_recovery_bytes);
    EXPECT_DOUBLE_EQ(a->running_time, b->running_time);
    EXPECT_EQ(CountsOf(a->outputs), CountsOf(b->outputs));
  }
}

TEST(IntegrityTest, UnreplicatedInputWithHighRateFailsWithCorruption) {
  // With one replica per chunk and a near-certain corruption rate, some
  // chunk loses its only good copy; the job must fail loudly with
  // kCorruption, never return silently wrong data.
  const ChunkStore input = FaultInput(/*replication=*/1);
  JobConfig cfg = FaultConfigFor(EngineKind::kMRHash, 1);
  cfg.faults.corruption_rate = 0.999999;
  cfg.faults.corruption_retry.max_retries = 0;
  auto r = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
}

TEST(IntegrityTest, CorruptionCostsShowUpInTimeAndBytes) {
  const ChunkStore input = FaultInput(/*replication=*/3);
  JobConfig cfg = FaultConfigFor(EngineKind::kSortMerge, 3);
  auto clean = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  ASSERT_TRUE(clean.ok());
  cfg.faults.corruption_rate = 0.10;
  cfg.faults.torn_writes = true;
  auto r = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(r->metrics.corruptions_detected, 0u);
  // Recovery re-reads, rebuilds and re-fetches are charged somewhere: the
  // recovery byte counter moves, and the run is no faster than clean.
  EXPECT_GT(r->metrics.corruption_recovery_bytes, 0u);
  EXPECT_GE(r->running_time, clean->running_time);
}

}  // namespace
}  // namespace onepass
