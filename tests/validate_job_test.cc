// The job gate (src/mr/cluster.h): ValidateJob is the one judge of whether
// a job can run. Over a grid of spec shapes × engines × feature flags it
// agrees exactly with RunJob: OK exactly when RunJob does not return
// InvalidArgument, and RunJob's status when it does. The multi-job entry
// points (RunJobChain, JobManager::Run) reject an unrunnable job before any
// task of any job runs.

#include "src/mr/cluster.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <string_view>
#include <vector>

#include "src/mr/job_chain.h"
#include "src/mr/job_manager.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/jobs.h"

namespace onepass {
namespace {

ChunkStore SmallInput() {
  ClickStreamConfig clicks;
  clicks.num_clicks = 4'000;
  clicks.num_users = 300;
  clicks.seed = 31;
  ChunkStore input(32 << 10, 4);
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
  cfg.chunk_bytes = 32 << 10;
  cfg.map_buffer_bytes = 64 << 10;
  cfg.reduce_memory_bytes = 64 << 10;
  cfg.expected_keys_per_reducer = 50;
  cfg.data_plane_threads = 1;
  return cfg;
}

// Click counting with its mapper factory counting calls: every map task
// attempt calls it once, so a count of 0 means no task ran.
JobSpec CountingClickCount(std::atomic<int>* calls) {
  JobSpec spec = ClickCountJob();
  spec.mapper = [inner = spec.mapper, calls] {
    calls->fetch_add(1);
    return inner();
  };
  return spec;
}

TEST(ValidateJobTest, GateMatchesRunJobOnEveryCell) {
  const ChunkStore input = SmallInput();
  const EngineKind engines[] = {EngineKind::kSortMerge, EngineKind::kMRHash,
                                EngineKind::kIncHash, EngineKind::kDincHash};
  const char* const shapes[] = {"reducer", "inc", "both", "no-mapper"};
  int cells = 0;
  int accepted = 0;
  for (int shape = 0; shape < 4; ++shape) {
    JobSpec spec = ClickCountJob();
    if (shape == 0) spec.inc = nullptr;
    if (shape == 1) spec.reducer = nullptr;
    if (shape == 3) spec.mapper = nullptr;
    for (const EngineKind engine : engines) {
      for (const bool combine : {false, true}) {
        for (const CombineScope scope :
             {CombineScope::kTask, CombineScope::kNode}) {
          for (const bool pipelining : {false, true}) {
            for (const int snapshots : {-1, 0, 2}) {
              for (const double phi : {0.0, 0.5}) {
                JobConfig cfg = SmallConfig(engine);
                cfg.map_side_combine = combine;
                cfg.combine_scope = scope;
                cfg.pipelining = pipelining;
                cfg.snapshots = snapshots;
                cfg.dinc_coverage_threshold = phi;
                const std::string cell =
                    std::string(shapes[shape]) + " " +
                    std::string(EngineKindName(engine)) +
                    " combine=" + std::to_string(combine) + " scope=" +
                    std::string(CombineScopeName(scope)) +
                    " pipelining=" + std::to_string(pipelining) +
                    " snapshots=" + std::to_string(snapshots) +
                    " phi=" + std::to_string(phi);
                const Status gate = ValidateJob(spec, cfg);
                const Result<JobResult> run =
                    LocalCluster::RunJob(spec, cfg, input);
                ++cells;
                if (gate.ok()) {
                  ++accepted;
                  EXPECT_TRUE(run.ok())
                      << cell << ": " << run.status().ToString();
                } else {
                  EXPECT_TRUE(gate.IsInvalidArgument())
                      << cell << ": " << gate.ToString();
                  EXPECT_EQ(run.status().ToString(), gate.ToString())
                      << cell;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cells, 768);
  // The runnable cells: 25 with both reduce factories, 18 with only an
  // IncrementalReducer (sort-merge needs map_side_combine, MR-hash none),
  // 10 with only a Reducer (sort-merge and MR-hash, task scope).
  EXPECT_EQ(accepted, 53);
}

// The JobBuilderTest cases keep the names of the rule checks the job builder
// carried; each states its rule through ValidateJob (or RunJob) directly.
JobConfig ValidConfig() {
  JobConfig cfg;
  cfg.engine = EngineKind::kIncHash;
  cfg.cluster.nodes = 4;
  cfg.cluster.cores_per_node = 2;
  cfg.cluster.map_slots = 2;
  cfg.cluster.reduce_slots = 2;
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = 64 << 10;
  cfg.map_side_combine = true;
  return cfg;
}

TEST(JobBuilderTest, ValidConfigurationPasses) {
  EXPECT_TRUE(ValidateJob(ClickCountJob(), ValidConfig()).ok());
}

TEST(JobBuilderTest, MissingMapperFails) {
  const Status s = ValidateJob(JobSpec{}, JobConfig{});
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("mapper"), std::string_view::npos);
}

TEST(JobBuilderTest, EngineApiMismatchDetected) {
  JobSpec no_inc = ClickCountJob();
  no_inc.inc = nullptr;
  JobConfig dinc = ValidConfig();
  dinc.engine = EngineKind::kDincHash;
  EXPECT_TRUE(ValidateJob(no_inc, dinc).IsInvalidArgument());

  JobSpec mapper_only = ClickCountJob();
  mapper_only.reducer = nullptr;
  mapper_only.inc = nullptr;
  JobConfig mr_hash = ValidConfig();
  mr_hash.engine = EngineKind::kMRHash;
  EXPECT_TRUE(ValidateJob(mapper_only, mr_hash).IsInvalidArgument());
}

TEST(JobBuilderTest, SortMergeAcceptsCombinerOnlyJobs) {
  JobSpec spec = ClickCountJob();
  spec.reducer = nullptr;
  JobConfig cfg = ValidConfig();
  cfg.engine = EngineKind::kSortMerge;
  cfg.map_side_combine = true;
  EXPECT_TRUE(ValidateJob(spec, cfg).ok());
  cfg.map_side_combine = false;
  EXPECT_TRUE(ValidateJob(spec, cfg).IsInvalidArgument());
}

TEST(JobBuilderTest, RangeChecks) {
  const JobSpec spec = ClickCountJob();
  JobConfig cfg = ValidConfig();
  cfg.chunk_bytes = 0;
  EXPECT_TRUE(ValidateJob(spec, cfg).IsInvalidArgument());
  cfg = ValidConfig();
  cfg.merge_factor = 1;
  EXPECT_TRUE(ValidateJob(spec, cfg).IsInvalidArgument());
  cfg = ValidConfig();
  cfg.dinc_coverage_threshold = 1.5;
  EXPECT_TRUE(ValidateJob(spec, cfg).IsInvalidArgument());
  cfg = ValidConfig();
  cfg.cluster.nodes = 0;
  EXPECT_TRUE(ValidateJob(spec, cfg).IsInvalidArgument());
  cfg = ValidConfig();
  cfg.snapshots = -1;
  EXPECT_TRUE(ValidateJob(spec, cfg).IsInvalidArgument());
}

TEST(JobBuilderTest, FeatureEngineMismatches) {
  const JobSpec spec = ClickCountJob();
  // Coverage threshold is DINC-only.
  JobConfig cfg = ValidConfig();
  cfg.engine = EngineKind::kIncHash;
  cfg.dinc_coverage_threshold = 0.5;
  EXPECT_TRUE(ValidateJob(spec, cfg).IsInvalidArgument());
  // Pipelining is sort-merge-only.
  cfg = ValidConfig();
  cfg.engine = EngineKind::kIncHash;
  cfg.pipelining = true;
  cfg.pipeline_push_bytes = 64 << 10;
  EXPECT_TRUE(ValidateJob(spec, cfg).IsInvalidArgument());
}

TEST(JobBuilderTest, RunSurfacesValidationErrors) {
  ChunkStore input(64 << 10, 4);
  input.Seal();
  EXPECT_TRUE(LocalCluster::RunJob(JobSpec{}, JobConfig{}, input)
                  .status()
                  .IsInvalidArgument());
}

TEST(ValidateJobTest, ChainRejectsABadStageBeforeStageZeroRuns) {
  const ChunkStore input = SmallInput();
  const JobConfig cfg = SmallConfig(EngineKind::kIncHash);
  std::atomic<int> calls{0};
  JobSpec bad = CountingClickCount(&calls);
  bad.inc = nullptr;  // INC-hash without an IncrementalReducer
  const std::vector<ChainStage> stages = {
      {CountingClickCount(&calls), cfg, &input},
      {CountingClickCount(&calls), cfg, &input},
      {bad, cfg, &input},
  };
  auto chain = RunJobChain(stages);
  ASSERT_FALSE(chain.ok());
  EXPECT_TRUE(chain.status().IsInvalidArgument())
      << chain.status().ToString();
  EXPECT_NE(chain.status().message().find("stage 2"), std::string_view::npos)
      << chain.status().ToString();
  EXPECT_EQ(calls.load(), 0);

  // The good stages alone run, and their maps are counted.
  auto good = RunJobChain({stages[0], stages[1]});
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_GT(calls.load(), 0);
}

TEST(ValidateJobTest, ManagerRejectsAnUnrunnableJobBeforeItArrives) {
  const ChunkStore input = SmallInput();
  std::atomic<int> calls{0};
  JobSubmission sub;
  sub.spec = CountingClickCount(&calls);
  sub.spec.reducer = nullptr;  // MR-hash without a Reducer
  sub.config = SmallConfig(EngineKind::kMRHash);
  sub.input = &input;
  ManagerConfig mc;
  mc.cluster = sub.config.cluster;

  auto mr = JobManager::Run(mc, {sub});
  ASSERT_FALSE(mr.ok());
  EXPECT_TRUE(mr.status().IsInvalidArgument()) << mr.status().ToString();
  EXPECT_NE(mr.status().message().find("job 0"), std::string_view::npos)
      << mr.status().ToString();
  EXPECT_EQ(calls.load(), 0);

  // With its Reducer back the same submission runs to completion.
  sub.spec = CountingClickCount(&calls);
  auto ok = JobManager::Run(mc, {sub});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->jobs[0].state, JobOutcomeState::kCompleted);
  EXPECT_GT(calls.load(), 0);
}

}  // namespace
}  // namespace onepass
