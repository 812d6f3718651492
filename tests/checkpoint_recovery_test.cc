// Checkpointed reduce-state recovery end to end (DESIGN.md §5.6): a node
// crash late in the shuffle resumes its reducers from a replicated
// checkpoint instead of replaying the whole shuffle — re-fetching only
// post-watermark segments — while the answer stays byte-identical to a
// clean run on every engine, at every interval, at any thread count, and
// through the corrupt-replica fallback ladder. On the fault-test cluster
// (tests/fault_test_util.h) each of the 8 reducers sees ~40 shuffle
// segments, so a checkpoint every 4 deliveries leaves a ~90% watermark
// when the crash lands at 90% of the shuffle.

#include <gtest/gtest.h>

#include "src/mr/cluster.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/jobs.h"
#include "src/workloads/reference.h"
#include "tests/fault_test_util.h"

namespace onepass {
namespace {

sim::CrashEvent CrashLateInShuffle(int node, double fraction = 0.9) {
  sim::CrashEvent crash;
  crash.node = node;
  crash.at_reduce_fraction = fraction;
  return crash;
}

// The tentpole property + the issue's acceptance bound: a reduce-phase
// crash at 90% with checkpoints every 4 segments re-fetches at least 3x
// fewer segment bytes than the same crash without checkpoints, and both
// runs still produce the clean answer.
TEST(CheckpointRecoveryTest, LateCrashResumesFromCheckpointOnAllEngines) {
  const ChunkStore input = FaultInput(/*replication=*/2);
  const auto expected = ReferenceClickCounts(input, ClickKeyField::kUser);
  for (EngineKind engine : kAllEngines) {
    JobConfig cfg = FaultConfigFor(engine, 2);
    cfg.checkpoint_interval_segments = 4;
    cfg.checkpoint_replication = 2;

    // Clean run: checkpoints are written (and charged) but never needed.
    auto clean = LocalCluster::RunJob(ClickCountJob(), cfg, input);
    ASSERT_TRUE(clean.ok()) << EngineKindName(engine) << ": "
                            << clean.status().ToString();
    EXPECT_EQ(CountsOf(clean->outputs), expected) << EngineKindName(engine);
    EXPECT_GT(clean->metrics.checkpoints_written, 0u);
    EXPECT_GT(clean->metrics.checkpoint_bytes, 0u);
    EXPECT_GT(clean->metrics.checkpoint_replica_bytes, 0u);
    EXPECT_EQ(clean->metrics.checkpoints_restored, 0u);
    EXPECT_EQ(clean->metrics.shuffle_refetched_bytes, 0u);

    // Crash at 90% of the shuffle, with checkpoints to resume from.
    cfg.faults.crashes = {CrashLateInShuffle(2)};
    auto ckpt = LocalCluster::RunJob(ClickCountJob(), cfg, input);
    ASSERT_TRUE(ckpt.ok()) << EngineKindName(engine) << ": "
                           << ckpt.status().ToString();
    EXPECT_EQ(CountsOf(ckpt->outputs), expected) << EngineKindName(engine);
    const JobMetrics& m = ckpt->metrics;
    EXPECT_EQ(m.node_crashes, 1u);
    EXPECT_GT(m.checkpoints_restored, 0u) << EngineKindName(engine);
    EXPECT_GT(m.checkpoint_restore_bytes, 0u);
    EXPECT_GT(m.checkpoint_segments_skipped, 0u);
    EXPECT_GT(m.checkpoint_skipped_bytes, 0u);
    EXPECT_EQ(m.checkpoint_full_replays, 0u);

    // The same crash without checkpointing replays the whole shuffle.
    JobConfig no_ckpt_cfg = FaultConfigFor(engine, 2);
    no_ckpt_cfg.faults.crashes = {CrashLateInShuffle(2)};
    auto replay = LocalCluster::RunJob(ClickCountJob(), no_ckpt_cfg, input);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_EQ(CountsOf(replay->outputs), expected);
    EXPECT_EQ(replay->metrics.checkpoints_written, 0u);
    EXPECT_GT(replay->metrics.shuffle_refetched_bytes, 0u);
    EXPECT_GE(replay->metrics.shuffle_refetched_bytes,
              3 * m.shuffle_refetched_bytes)
        << EngineKindName(engine)
        << ": checkpointing must cut re-fetched bytes at least 3x";
  }
}

// With one replica on the writer's own node, the crash takes the
// checkpoint down with the reducer: the ladder finds nothing durable and
// falls back to full replay — correct answer, full-replay counter set.
TEST(CheckpointRecoveryTest, ReplicaLostWithWriterFallsBackToFullReplay) {
  const ChunkStore input = FaultInput(/*replication=*/2);
  const auto expected = ReferenceClickCounts(input, ClickKeyField::kUser);
  JobConfig cfg = FaultConfigFor(EngineKind::kIncHash, 2);
  cfg.checkpoint_interval_segments = 4;
  cfg.checkpoint_replication = 1;  // primary only, on the writer
  cfg.faults.crashes = {CrashLateInShuffle(2)};
  auto r = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(CountsOf(r->outputs), expected);
  EXPECT_GT(r->metrics.checkpoints_written, 0u);
  EXPECT_GT(r->metrics.checkpoint_full_replays, 0u);
  EXPECT_EQ(r->metrics.checkpoints_restored, 0u);
  EXPECT_EQ(r->metrics.checkpoint_segments_skipped, 0u);
}

// Corrupt replicas are rejected by the CRC verifier and the ladder steps
// to the next slot / older instance; the restart still resumes from some
// verified image (or replays) and the answer is unchanged. The corruption
// draws are pure functions of the seed, so sweeping a handful of seeds is
// deterministic: every run must stay correct, and across the sweep the
// ladder provably rejects at least one corrupt candidate.
TEST(CheckpointRecoveryTest, CorruptReplicasLadderToOlderImages) {
  const ChunkStore input = FaultInput(/*replication=*/3);
  const auto expected = ReferenceClickCounts(input, ClickKeyField::kUser);
  uint64_t corrupt_rejections = 0, restores = 0;
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    JobConfig cfg = FaultConfigFor(EngineKind::kDincHash, 2);
    cfg.seed = seed;
    cfg.checkpoint_interval_segments = 4;
    cfg.checkpoint_replication = 2;
    cfg.faults.crashes = {CrashLateInShuffle(2)};
    cfg.faults.corruption_rate = 0.10;
    cfg.faults.torn_writes = true;
    auto r = LocalCluster::RunJob(ClickCountJob(), cfg, input);
    ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << r.status().ToString();
    EXPECT_EQ(CountsOf(r->outputs), expected) << "seed " << seed;
    const JobMetrics& m = r->metrics;
    // Every crashed reducer either resumed from a verified image or fell
    // back to full replay.
    EXPECT_GT(m.checkpoints_restored + m.checkpoint_full_replays, 0u)
        << "seed " << seed;
    corrupt_rejections += m.checkpoint_corrupt_replicas;
    restores += m.checkpoints_restored;
  }
  EXPECT_GT(corrupt_rejections, 0u)
      << "no seed in the sweep exercised the corrupt-replica ladder";
  EXPECT_GT(restores, 0u);
}

// Two identical faulted checkpointed runs are byte-identical, down to the
// recovery schedule and every checkpoint counter.
TEST(CheckpointRecoveryTest, DeterministicUnderCheckpointedRecovery) {
  const ChunkStore input = FaultInput(/*replication=*/2);
  for (EngineKind engine : {EngineKind::kSortMerge, EngineKind::kIncHash}) {
    JobConfig cfg = FaultConfigFor(engine, 2);
    cfg.checkpoint_interval_segments = 4;
    cfg.checkpoint_replication = 2;
    cfg.faults.crashes = {CrashLateInShuffle(2)};
    cfg.faults.fetch_failure_rate = 0.1;

    auto a = LocalCluster::RunJob(ClickCountJob(), cfg, input);
    auto b = LocalCluster::RunJob(ClickCountJob(), cfg, input);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->outputs, b->outputs) << EngineKindName(engine);
    EXPECT_DOUBLE_EQ(a->running_time, b->running_time);
    const JobMetrics& ma = a->metrics;
    const JobMetrics& mb = b->metrics;
    EXPECT_EQ(ma.checkpoints_written, mb.checkpoints_written);
    EXPECT_EQ(ma.checkpoint_bytes, mb.checkpoint_bytes);
    EXPECT_EQ(ma.checkpoints_restored, mb.checkpoints_restored);
    EXPECT_EQ(ma.checkpoint_restore_bytes, mb.checkpoint_restore_bytes);
    EXPECT_EQ(ma.checkpoint_segments_skipped,
              mb.checkpoint_segments_skipped);
    EXPECT_EQ(ma.checkpoint_skipped_bytes, mb.checkpoint_skipped_bytes);
    EXPECT_EQ(ma.shuffle_refetched_bytes, mb.shuffle_refetched_bytes);
    EXPECT_EQ(ma.checkpoint_corrupt_replicas, mb.checkpoint_corrupt_replicas);
  }
}

// The equivalence sweep: every engine, with checkpointing off / every
// segment / every 4th segment, single-threaded and parallel, clean and
// crashed — all produce the same counts.
TEST(CheckpointRecoveryTest, OutputsInvariantAcrossIntervalsAndThreads) {
  const ChunkStore input = FaultInput(/*replication=*/2, 10'000);
  const auto expected = ReferenceClickCounts(input, ClickKeyField::kUser);
  for (EngineKind engine : kAllEngines) {
    for (const uint64_t interval : {0, 1, 4}) {
      for (const int threads : {1, 4}) {
        for (const bool faulted : {false, true}) {
          JobConfig cfg = FaultConfigFor(engine, 2);
          cfg.checkpoint_interval_segments = interval;
          cfg.data_plane_threads = threads;
          if (faulted) cfg.faults.crashes = {CrashLateInShuffle(1, 0.75)};
          auto r = LocalCluster::RunJob(ClickCountJob(), cfg, input);
          ASSERT_TRUE(r.ok())
              << EngineKindName(engine) << " segs=" << interval
              << " threads=" << threads << " faulted=" << faulted << ": "
              << r.status().ToString();
          EXPECT_EQ(CountsOf(r->outputs), expected)
              << EngineKindName(engine) << " segs=" << interval
              << " threads=" << threads << " faulted=" << faulted;
        }
      }
    }
  }
}

// Delta images keep checkpoint bytes linear in the input: each image
// carries what changed since the previous one, and a chain compacts to a
// new full image only when its deltas outgrow the last one. Images of the
// whole state would grow with the state consumed, and their total with
// the square of the input (x3.3-3.8 per 2x on sort-merge and MR-hash).
TEST(CheckpointRecoveryTest, CheckpointBytesGrowLinearlyWithInput) {
  const ChunkStore small = FaultInput(/*replication=*/2, 20'000);
  const ChunkStore large = FaultInput(/*replication=*/2, 40'000);
  for (EngineKind engine : kAllEngines) {
    for (const BlockCodecKind codec :
         {BlockCodecKind::kNone, BlockCodecKind::kLz}) {
      JobConfig cfg = FaultConfigFor(engine, 2);
      cfg.block_codec = codec;
      cfg.checkpoint_interval_segments = 4;
      cfg.checkpoint_replication = 2;
      auto a = LocalCluster::RunJob(ClickCountJob(), cfg, small);
      auto b = LocalCluster::RunJob(ClickCountJob(), cfg, large);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      ASSERT_GT(a->metrics.checkpoint_bytes, 0u);
      const double growth =
          static_cast<double>(b->metrics.checkpoint_bytes) /
          static_cast<double>(a->metrics.checkpoint_bytes);
      EXPECT_LE(growth, 2.3)
          << EngineKindName(engine)
          << (codec == BlockCodecKind::kLz ? "+lz" : "+raw") << ": "
          << a->metrics.checkpoint_bytes << " -> "
          << b->metrics.checkpoint_bytes << " checkpoint bytes";
    }
  }
}

}  // namespace
}  // namespace onepass
