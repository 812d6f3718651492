// FaultPlan unit behaviour: pure-function determinism, bounded transient
// failure draws, and straggler factor lookup.

#include "src/sim/fault_injector.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace onepass::sim {
namespace {

FaultConfig BusyConfig() {
  FaultConfig f;
  CrashEvent crash;
  crash.node = 2;
  crash.at_map_fraction = 0.5;
  f.crashes.push_back(crash);
  StragglerSpec slow;
  slow.node = 1;
  slow.cpu_factor = 3.0;
  slow.disk_factor = 2.0;
  f.stragglers.push_back(slow);
  f.disk_error_rate = 0.2;
  f.fetch_failure_rate = 0.3;
  f.speculative_execution = true;
  return f;
}

TEST(FaultPlanTest, EmptyPlanIsInert) {
  FaultPlan plan;
  EXPECT_FALSE(plan.active());
  EXPECT_DOUBLE_EQ(plan.CpuFactor(0), 1.0);
  EXPECT_DOUBLE_EQ(plan.DiskFactor(0), 1.0);
  EXPECT_EQ(plan.FetchFailures(0, 0, 0), 0);
  EXPECT_EQ(plan.DiskReadFailures(true, 0, 0, 0), 0);
}

TEST(FaultPlanTest, SameSeedSamePlan) {
  const FaultConfig f = BusyConfig();
  const FaultPlan a(f, 42);
  const FaultPlan b(f, 42);
  EXPECT_TRUE(a.active());
  for (int r = 0; r < 20; ++r) {
    for (int m = 0; m < 20; ++m) {
      EXPECT_EQ(a.FetchFailures(r, m, 0), b.FetchFailures(r, m, 0));
      EXPECT_EQ(a.DiskReadFailures(true, m, r % 3, 7),
                b.DiskReadFailures(true, m, r % 3, 7));
    }
  }
}

TEST(FaultPlanTest, DifferentSeedsDiverge) {
  const FaultConfig f = BusyConfig();
  const FaultPlan a(f, 1);
  const FaultPlan b(f, 2);
  int differing = 0;
  for (int r = 0; r < 50; ++r) {
    for (int m = 0; m < 50; ++m) {
      if (a.FetchFailures(r, m, 0) != b.FetchFailures(r, m, 0)) ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultPlanTest, FailureDrawsAreBoundedAndMatchRateRoughly) {
  FaultConfig f;
  f.fetch_failure_rate = 0.25;
  f.disk_error_rate = 0.1;
  const FaultPlan plan(f, 7);
  int fetch_failures = 0;
  const int kDraws = 4000;
  for (int i = 0; i < kDraws; ++i) {
    const int ff = plan.FetchFailures(i % 16, i / 16, 0);
    ASSERT_GE(ff, 0);
    ASSERT_LE(ff, kMaxFetchFailures);
    if (ff > 0) ++fetch_failures;
    const int df = plan.DiskReadFailures(false, i % 16, 0, i);
    ASSERT_GE(df, 0);
    ASSERT_LE(df, kMaxDiskReadFailures);
  }
  // P(at least one failure) == rate; allow generous sampling slack.
  const double observed =
      static_cast<double>(fetch_failures) / static_cast<double>(kDraws);
  EXPECT_NEAR(observed, 0.25, 0.05);
}

// The fixed recovery schedule's caps, pinned by value: at a near-certain
// rate nearly every draw reaches its cap, and none passes it.
TEST(FaultPlanTest, NearCertainRatesDrawExactlyTheCaps) {
  FaultConfig f;
  f.fetch_failure_rate = 0.999999;
  f.disk_error_rate = 0.999999;
  f.corruption_rate = 0.999999;
  const FaultPlan plan(f, 17);
  int max_fetch = 0, max_disk = 0, max_chain = 0;
  for (int i = 0; i < 4000; ++i) {
    const int ff = plan.FetchFailures(i % 64, i / 64, i % 3);
    const int df = plan.DiskReadFailures(i % 2 == 0, i % 64, 0, i);
    const int chain =
        plan.CorruptionChain(StreamKind::kBucketFile, i % 64, i / 64);
    ASSERT_LE(ff, 4);
    ASSERT_LE(df, 3);
    ASSERT_LE(chain, 3);
    max_fetch = std::max(max_fetch, ff);
    max_disk = std::max(max_disk, df);
    max_chain = std::max(max_chain, chain);
  }
  EXPECT_EQ(max_fetch, 4);
  EXPECT_EQ(max_disk, 3);
  EXPECT_EQ(max_chain, 3);
}

TEST(FaultPlanTest, StragglerFactorsApplyOnlyToTheirNode) {
  const FaultPlan plan(BusyConfig(), 3);
  EXPECT_DOUBLE_EQ(plan.CpuFactor(1), 3.0);
  EXPECT_DOUBLE_EQ(plan.DiskFactor(1), 2.0);
  EXPECT_DOUBLE_EQ(plan.CpuFactor(0), 1.0);
  EXPECT_DOUBLE_EQ(plan.DiskFactor(2), 1.0);
}

TEST(FaultPlanTest, ZeroRatesNeverFail) {
  FaultConfig f;  // all rates zero
  const FaultPlan plan(f, 5);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(plan.FetchFailures(i, i, i), 0);
    EXPECT_EQ(plan.DiskReadFailures(i % 2 == 0, i, 0, i), 0);
  }
}

TEST(FaultPlanTest, ZeroCorruptionRateNeverFires) {
  FaultConfig f;  // corruption_rate = 0
  f.torn_writes = true;
  const FaultPlan plan(f, 5);
  for (int i = 0; i < 200; ++i) {
    for (StreamKind kind :
         {StreamKind::kDfsChunk, StreamKind::kMapSpillRun,
          StreamKind::kBucketFile, StreamKind::kMapOutput,
          StreamKind::kShuffleWire}) {
      EXPECT_EQ(plan.CorruptionChain(kind, i, i / 2), 0);
    }
    EXPECT_EQ(plan.MapOutputCorruptions(i, 0), 0);
    EXPECT_EQ(plan.FetchCorruptions(i, i, 0), 0);
  }
}

TEST(FaultPlanTest, CorruptionDrawsAreDeterministicAndBounded) {
  FaultConfig f;
  f.corruption_rate = 0.3;
  f.torn_writes = true;
  const FaultPlan a(f, 11), b(f, 11);
  const FaultPlan other_seed(f, 12);
  int fired = 0, differs = 0;
  for (int i = 0; i < 1000; ++i) {
    const int chain = a.CorruptionChain(StreamKind::kBucketFile, i, i % 7);
    ASSERT_GE(chain, 0);
    ASSERT_LE(chain, kMaxCorruptGenerations);  // 1 + geometric, capped
    EXPECT_EQ(chain, b.CorruptionChain(StreamKind::kBucketFile, i, i % 7));
    if (chain !=
        other_seed.CorruptionChain(StreamKind::kBucketFile, i, i % 7)) {
      ++differs;
    }
    if (chain == 0) continue;
    ++fired;
    for (int gen = 0; gen < chain; ++gen) {
      const CorruptionEvent ev = a.CorruptionDamage(
          StreamKind::kBucketFile, i, i % 7, gen, /*framed_bytes=*/1000);
      EXPECT_TRUE(ev.fires());
      EXPECT_LT(ev.bit, 8 * 1000);
      const CorruptionEvent ev2 = b.CorruptionDamage(
          StreamKind::kBucketFile, i, i % 7, gen, 1000);
      EXPECT_EQ(ev.bit, ev2.bit);
      EXPECT_EQ(ev.torn, ev2.torn);
      if (ev.torn) {
        // A torn write keeps at least one byte and drops at least one.
        EXPECT_GE(ev.bit / 8, 1);
        EXPECT_LT(ev.bit / 8, 1000);
      }
    }
  }
  // Roughly rate * draws fire, and the seed matters.
  EXPECT_NEAR(static_cast<double>(fired) / 1000.0, 0.3, 0.06);
  EXPECT_GT(differs, 0);
}

TEST(FaultPlanTest, StreamKindsDrawIndependently) {
  FaultConfig f;
  f.corruption_rate = 0.5;
  const FaultPlan plan(f, 21);
  // The same (a, b) coordinates under different kinds must not be
  // perfectly correlated — each kind has its own keyspace.
  int same = 0, n = 500;
  for (int i = 0; i < n; ++i) {
    const bool chunk = plan.CorruptionChain(StreamKind::kDfsChunk, i, 0) > 0;
    const bool bucket =
        plan.CorruptionChain(StreamKind::kBucketFile, i, 0) > 0;
    if (chunk == bucket) ++same;
  }
  EXPECT_LT(same, n);
  EXPECT_GT(same, 0);
}

TEST(FaultPlanTest, TornWritesRequireOptIn) {
  FaultConfig f;
  f.corruption_rate = 0.9;
  f.torn_writes = false;
  const FaultPlan plan(f, 13);
  for (int i = 0; i < 300; ++i) {
    const int chain = plan.CorruptionChain(StreamKind::kMapOutput, i, 1);
    for (int gen = 0; gen < chain; ++gen) {
      EXPECT_FALSE(
          plan.CorruptionDamage(StreamKind::kMapOutput, i, 1, gen, 512)
              .torn);
    }
  }
}

TEST(FaultPlanTest, CorruptionRateAloneArmsThePlan) {
  FaultConfig f;
  EXPECT_FALSE(f.any());
  f.corruption_rate = 0.01;
  EXPECT_TRUE(f.any());
}

TEST(FaultPlanTest, CheckpointDrawsAreDeterministicAndIndependent) {
  FaultConfig f;
  f.corruption_rate = 0.4;
  const FaultPlan a(f, 17), b(f, 17);
  const FaultPlan other_seed(f, 18);
  int fired = 0, differs = 0, slot_differs = 0, ordinal_differs = 0;
  for (int task = 0; task < 200; ++task) {
    for (uint32_t ordinal = 0; ordinal < 3; ++ordinal) {
      for (int slot = 0; slot < 2; ++slot) {
        const int chain = a.CheckpointCorruptions(task, ordinal, slot);
        ASSERT_GE(chain, 0);
        ASSERT_LE(chain, 3);
        EXPECT_EQ(chain, b.CheckpointCorruptions(task, ordinal, slot));
        if (chain != other_seed.CheckpointCorruptions(task, ordinal, slot)) {
          ++differs;
        }
        if (chain > 0) ++fired;
      }
      // Replica slots of the same instance draw independently — that
      // independence is the whole point of replication: one slot corrupt,
      // the other still restores.
      if ((a.CheckpointCorruptions(task, ordinal, 0) > 0) !=
          (a.CheckpointCorruptions(task, ordinal, 1) > 0)) {
        ++slot_differs;
      }
    }
    // And instances (ordinals) draw independently of each other.
    if ((a.CheckpointCorruptions(task, 0, 0) > 0) !=
        (a.CheckpointCorruptions(task, 1, 0) > 0)) {
      ++ordinal_differs;
    }
  }
  EXPECT_NEAR(static_cast<double>(fired) / 1200.0, 0.4, 0.05);
  EXPECT_GT(differs, 0);
  EXPECT_GT(slot_differs, 0);
  EXPECT_GT(ordinal_differs, 0);
}

TEST(FaultPlanTest, ZeroRateCheckpointDrawsNeverFire) {
  const FaultPlan plan(FaultConfig(), 9);
  for (int task = 0; task < 50; ++task) {
    for (uint32_t ordinal = 0; ordinal < 4; ++ordinal) {
      for (int slot = 0; slot < 3; ++slot) {
        EXPECT_EQ(plan.CheckpointCorruptions(task, ordinal, slot), 0);
      }
    }
  }
}

TEST(FaultConfigTest, ReduceFractionCrashValidates) {
  FaultConfig f;
  CrashEvent crash;
  crash.node = 1;
  crash.at_reduce_fraction = 0.9;
  f.crashes.push_back(crash);
  EXPECT_TRUE(f.Validate(4).ok());
  EXPECT_TRUE(f.any());

  // Out-of-range fractions are rejected.
  f.crashes[0].at_reduce_fraction = 0.0;
  EXPECT_FALSE(f.Validate(4).ok());
  f.crashes[0].at_reduce_fraction = 1.5;
  EXPECT_FALSE(f.Validate(4).ok());
}

TEST(FaultConfigTest, CrashNeedsExactlyOneTrigger) {
  FaultConfig f;
  CrashEvent crash;
  crash.node = 0;
  f.crashes.push_back(crash);
  // No trigger at all.
  EXPECT_FALSE(f.Validate(4).ok());
  // Two triggers at once.
  f.crashes[0].at_map_fraction = 0.5;
  f.crashes[0].at_reduce_fraction = 0.5;
  EXPECT_FALSE(f.Validate(4).ok());
  f.crashes[0].at_map_fraction = -1;
  f.crashes[0].time = 10.0;
  EXPECT_FALSE(f.Validate(4).ok());
  // Exactly one trigger.
  f.crashes[0].time = -1;
  EXPECT_TRUE(f.Validate(4).ok());
}

}  // namespace
}  // namespace onepass::sim
