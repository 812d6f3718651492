// Cluster-level behaviour: scheduling, progress semantics, determinism,
// second-wave shuffle penalty, SSD routing, and configuration errors.

#include "src/mr/cluster.h"

#include <gtest/gtest.h>

#include "src/workloads/clickstream.h"
#include "src/workloads/jobs.h"

namespace onepass {
namespace {

ChunkStore SmallInput(uint64_t chunk_bytes = 64 << 10, int nodes = 4) {
  ClickStreamConfig clicks;
  clicks.num_clicks = 15'000;
  clicks.num_users = 500;
  clicks.clicks_per_second = 5;
  clicks.seed = 99;
  ChunkStore input(chunk_bytes, nodes);
  GenerateClickStream(clicks, &input);
  return input;
}

JobConfig SmallConfig(EngineKind engine) {
  JobConfig cfg;
  cfg.engine = engine;
  cfg.cluster.nodes = 4;
  cfg.cluster.cores_per_node = 2;
  cfg.cluster.map_slots = 2;
  cfg.cluster.reduce_slots = 2;
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = 64 << 10;
  cfg.map_buffer_bytes = 128 << 10;
  cfg.reduce_memory_bytes = 256 << 10;
  cfg.expected_keys_per_reducer = 100;
  cfg.expected_bytes_per_reducer = 1 << 20;
  return cfg;
}

TEST(ClusterTest, ProgressCurvesAreMonotoneAndComplete) {
  const ChunkStore input = SmallInput();
  for (EngineKind kind : {EngineKind::kSortMerge, EngineKind::kIncHash}) {
    auto r = LocalCluster::RunJob(SessionizationJob(), SmallConfig(kind),
                                  input);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto check_monotone = [](const sim::StepSeries& s, const char* name) {
      for (size_t i = 1; i < s.values.size(); ++i) {
        ASSERT_LE(s.values[i - 1], s.values[i] + 1e-9) << name;
      }
    };
    check_monotone(r->map_progress, "map");
    check_monotone(r->reduce_progress, "reduce");
    EXPECT_NEAR(r->map_progress.FinalValue(), 100.0, 1e-6);
    EXPECT_NEAR(r->reduce_progress.FinalValue(), 100.0, 1e-6);
    EXPECT_GT(r->running_time, 0.0);
    EXPECT_GE(r->running_time, r->map_finish_time);
  }
}

TEST(ClusterTest, DeterministicAcrossRuns) {
  const ChunkStore input = SmallInput();
  const JobConfig cfg = SmallConfig(EngineKind::kIncHash);
  auto a = LocalCluster::RunJob(SessionizationJob(), cfg, input);
  auto b = LocalCluster::RunJob(SessionizationJob(), cfg, input);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->running_time, b->running_time);
  EXPECT_EQ(a->metrics.reduce_spill_write_bytes,
            b->metrics.reduce_spill_write_bytes);
  EXPECT_EQ(a->metrics.output_records, b->metrics.output_records);
  EXPECT_EQ(a->metrics.reduce_output_bytes, b->metrics.reduce_output_bytes);
}

TEST(ClusterTest, SeedChangesPartitioningButNotResults) {
  const ChunkStore input = SmallInput();
  JobConfig cfg = SmallConfig(EngineKind::kIncHash);
  cfg.collect_outputs = true;
  auto a = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  cfg.seed = 777;
  auto b = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto sorted = [](std::vector<Record> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(a->outputs), sorted(b->outputs));
}

TEST(ClusterTest, SecondReducerWaveFetchesFromDisk) {
  const ChunkStore input = SmallInput();
  JobConfig cfg = SmallConfig(EngineKind::kSortMerge);
  cfg.costs.map_output_retention_s = 0.01;

  cfg.reducers_per_node = 2;  // one wave (2 slots)
  auto one_wave = LocalCluster::RunJob(SessionizationJob(), cfg, input);
  ASSERT_TRUE(one_wave.ok());
  EXPECT_EQ(one_wave->shuffle_from_disk_bytes, 0u);

  cfg.reducers_per_node = 4;  // two waves
  auto two_waves = LocalCluster::RunJob(SessionizationJob(), cfg, input);
  ASSERT_TRUE(two_waves.ok());
  EXPECT_GT(two_waves->shuffle_from_disk_bytes, 0u);
  EXPECT_GT(two_waves->running_time, one_wave->running_time);
}

TEST(ClusterTest, SeparateIntermediateDeviceSpeedsUpSpillHeavyJob) {
  const ChunkStore input = SmallInput();
  JobConfig cfg = SmallConfig(EngineKind::kSortMerge);
  cfg.reduce_memory_bytes = 16 << 10;  // heavy spills
  cfg.merge_factor = 3;
  auto hdd_only = LocalCluster::RunJob(SessionizationJob(), cfg, input);
  cfg.cluster.separate_intermediate_device = true;
  auto with_ssd = LocalCluster::RunJob(SessionizationJob(), cfg, input);
  ASSERT_TRUE(hdd_only.ok());
  ASSERT_TRUE(with_ssd.ok());
  // Fig. 2(d): faster, but essentially the same spill volume (blocking
  // persists). Spills can differ slightly because device timing shifts
  // the map completion order and hence the delivery order.
  EXPECT_LT(with_ssd->running_time, hdd_only->running_time);
  EXPECT_NEAR(
      static_cast<double>(with_ssd->metrics.reduce_spill_write_bytes),
      static_cast<double>(hdd_only->metrics.reduce_spill_write_bytes),
      0.1 * static_cast<double>(hdd_only->metrics.reduce_spill_write_bytes));
}

TEST(ClusterTest, PipeliningDeliversEverything) {
  const ChunkStore input = SmallInput();
  JobConfig cfg = SmallConfig(EngineKind::kSortMerge);
  cfg.collect_outputs = true;
  auto stock = LocalCluster::RunJob(SessionizationJob(), cfg, input);
  cfg.pipelining = true;
  cfg.pipeline_push_bytes = 8 << 10;
  auto hop = LocalCluster::RunJob(SessionizationJob(), cfg, input);
  ASSERT_TRUE(stock.ok());
  ASSERT_TRUE(hop.ok());
  auto sorted = [](std::vector<Record> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(stock->outputs), sorted(hop->outputs));
}

TEST(ClusterTest, MissingMapperIsRejected) {
  const ChunkStore input = SmallInput();
  JobSpec spec;
  auto r = LocalCluster::RunJob(spec, SmallConfig(EngineKind::kSortMerge),
                                input);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(ClusterTest, MissingReducerApiIsRejected) {
  const ChunkStore input = SmallInput();
  JobSpec spec = SessionizationJob();
  spec.inc = nullptr;  // MR-hash path is fine, INC-hash path must fail
  auto r = LocalCluster::RunJob(spec, SmallConfig(EngineKind::kIncHash),
                                input);
  EXPECT_FALSE(r.ok());
}

TEST(ClusterTest, InvalidClusterShapeIsRejected) {
  const ChunkStore input = SmallInput();
  JobConfig cfg = SmallConfig(EngineKind::kSortMerge);
  cfg.cluster.nodes = 0;
  EXPECT_TRUE(LocalCluster::RunJob(SessionizationJob(), cfg, input)
                  .status()
                  .IsInvalidArgument());
  cfg = SmallConfig(EngineKind::kSortMerge);
  cfg.reducers_per_node = 0;
  EXPECT_TRUE(LocalCluster::RunJob(SessionizationJob(), cfg, input)
                  .status()
                  .IsInvalidArgument());
}

TEST(ClusterTest, EmptyInputRunsCleanly) {
  ChunkStore input(64 << 10, 4);
  input.Seal();
  JobConfig cfg = SmallConfig(EngineKind::kIncHash);
  auto r = LocalCluster::RunJob(SessionizationJob(), cfg, input);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->metrics.output_records, 0u);
  EXPECT_EQ(r->map_tasks, 0);
}

TEST(ClusterTest, MetricsBalanceAcrossPlanes) {
  const ChunkStore input = SmallInput();
  auto r = LocalCluster::RunJob(SessionizationJob(),
                                SmallConfig(EngineKind::kSortMerge), input);
  ASSERT_TRUE(r.ok());
  const JobMetrics& m = r->metrics;
  // Everything mapped got shuffled; everything shuffled equals map output.
  EXPECT_EQ(m.shuffle_bytes, m.map_output_bytes);
  EXPECT_EQ(m.map_input_records, input.total_records());
  // Reduce input records = map output records (no loss in flight).
  EXPECT_EQ(m.reduce_input_records + m.combine_invocations,
            m.reduce_input_records + m.combine_invocations);
  // Spills are read back no less than written (merge rereads add more).
  EXPECT_GE(m.reduce_spill_read_bytes, m.reduce_spill_write_bytes);
}

TEST(ClusterTest, CpuTimelineCoversJob) {
  const ChunkStore input = SmallInput();
  JobConfig cfg = SmallConfig(EngineKind::kSortMerge);
  cfg.timeline_bin_s = 0.01;
  auto r = LocalCluster::RunJob(SessionizationJob(), cfg, input);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->cpu_util.values.empty());
  double peak = 0;
  for (double v : r->cpu_util.values) {
    EXPECT_GE(v, -1e-9);
    EXPECT_LE(v, 1.0 + 1e-9);
    peak = std::max(peak, v);
  }
  EXPECT_GT(peak, 0.1);  // the cluster actually did work
}

// examples/quickstart.cc's word count: a 0.132 simulated-second job.
Result<JobResult> RunQuickstartWordCount(double timeline_bin_s) {
  ChunkStore input(/*chunk_bytes=*/4096, /*nodes=*/4);
  const char* docs[] = {
      "the quick brown fox jumps over the lazy dog",
      "the dog barks and the fox runs",
      "one pass analytics needs incremental processing",
      "hash beats sort for one pass analytics",
  };
  for (int copy = 0; copy < 200; ++copy) {
    for (const char* doc : docs) input.Append("", doc);
  }
  input.Seal();
  JobConfig cfg;
  cfg.engine = EngineKind::kIncHash;
  cfg.cluster.nodes = 4;
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = 4096;
  cfg.map_side_combine = true;
  cfg.timeline_bin_s = timeline_bin_s;
  return LocalCluster::RunJob(WordCountJob(), cfg, input);
}

// A bin the job gate accepts can still need more bins than a series may
// hold: the run fails with a typed error instead of overflowing the bin
// count (1e-12) or allocating ~1 GB per series (1e-9).
TEST(ClusterTest, TimelineBinTooFineForTheJobIsRejected) {
  for (const double bin : {1e-12, 1e-9}) {
    auto r = RunQuickstartWordCount(bin);
    ASSERT_FALSE(r.ok()) << bin;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  }
  auto r = RunQuickstartWordCount(1e-4);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NEAR(r->running_time, 0.1321, 1e-4);
  EXPECT_EQ(r->cpu_util.values.size(), 1322u);
  EXPECT_EQ(r->iowait.values.size(), 1322u);
}

}  // namespace
}  // namespace onepass
