// Determinism regression for the parallel data plane (DESIGN.md §5.3):
// the same job at data_plane_threads = 1, 2, and 8 (1 and 4 for the
// answer-size cases) must produce byte-identical results — outputs, every
// metric, the simulated running time, and every progress/utilization
// curve — including under nonzero fault and corruption rates, whose draws
// are keyed by task id rather than execution order. Exact double equality
// is intentional: within one binary the parallel schedule must not
// perturb a single operation.

#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/mr/cluster.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/count_workloads.h"
#include "src/workloads/jobs.h"
#include "src/workloads/reference.h"
#include "tests/test_fingerprint.h"

namespace onepass {
namespace {

ChunkStore MakeInputStore(int replication = 1) {
  ClickStreamConfig clicks;
  clicks.num_clicks = 30'000;
  clicks.num_users = 1'500;
  clicks.user_skew = 0.8;
  clicks.seed = 11;
  ChunkStore input(64 << 10, 5, replication);
  GenerateClickStream(clicks, &input);
  return input;
}

JobConfig BaseConfig(EngineKind engine) {
  JobConfig cfg;
  cfg.engine = engine;
  cfg.cluster.nodes = 5;
  cfg.cluster.cores_per_node = 2;
  cfg.cluster.map_slots = 2;
  cfg.cluster.reduce_slots = 2;
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = 64 << 10;
  cfg.reduce_memory_bytes = 8 << 10;  // tight: spills on every engine
  cfg.merge_factor = 4;
  cfg.bucket_page_bytes = 1024;
  cfg.map_side_combine = true;
  cfg.collect_outputs = true;
  cfg.expected_keys_per_reducer = 150;
  cfg.expected_bytes_per_reducer = 64 << 10;
  return cfg;
}

// Runs `spec` at data_plane_threads = 1 and at each of `thread_counts`,
// expects every run byte-identical to the sequential one, and hands that
// one back through `out` (may be null).
void ExpectThreadCountInvariant(const JobSpec& spec, const JobConfig& base,
                                const ChunkStore& input,
                                std::initializer_list<int> thread_counts,
                                JobResult* out = nullptr) {
  JobConfig cfg = base;
  cfg.data_plane_threads = 1;
  auto sequential = LocalCluster::RunJob(spec, cfg, input);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  const std::string want = Fingerprint(*sequential);
  for (int threads : thread_counts) {
    cfg.data_plane_threads = threads;
    auto parallel = LocalCluster::RunJob(spec, cfg, input);
    ASSERT_TRUE(parallel.ok())
        << "threads=" << threads << ": " << parallel.status().ToString();
    const std::string got = Fingerprint(*parallel);
    EXPECT_EQ(got, want) << "threads=" << threads
                         << " diverged from the sequential run";
  }
  if (out != nullptr) *out = std::move(*sequential);
}

// Two output records per click: the answer is twice the records the
// reducers consume, so it outgrows the reduce plane's reservation.
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
    uint64_t clicks = 0;
    std::string_view v;
    while (values->Next(&v)) {
      uint64_t c = 0;
      bool emitted = false;
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

JobSpec TwicePerClickJob() {
  JobSpec spec = ClickCountJob();
  spec.reducer = []() { return std::make_unique<TwicePerClickReducer>(); };
  spec.inc = []() { return std::make_unique<TwicePerClickIncReducer>(); };
  return spec;
}

// How many times each "key=value" record occurs in an answer.
std::map<std::string, uint64_t> RecordCounts(
    const std::vector<Record>& outputs) {
  std::map<std::string, uint64_t> counts;
  for (const Record& rec : outputs) ++counts[rec.key + "=" + rec.value];
  return counts;
}

// TwicePerClickJob's answer, as RecordCounts, straight from the input.
std::map<std::string, uint64_t> TwicePerClickReference(
    const ChunkStore& input) {
  std::map<std::string, uint64_t> counts;
  for (const auto& [user, clicks] :
       ReferenceClickCounts(input, ClickKeyField::kUser)) {
    counts[user + "=x"] = clicks;
    counts[user + "=y"] = clicks;
  }
  return counts;
}

class SilentMapper : public Mapper {
 public:
  void Map(std::string_view, std::string_view, Emitter*) override {}
};

class ParallelDeterminism : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ParallelDeterminism, CleanRunByteIdenticalAcrossThreadCounts) {
  const ChunkStore input = MakeInputStore();
  ExpectThreadCountInvariant(ClickCountJob(), BaseConfig(GetParam()), input,
                             {2, 8});
}

TEST_P(ParallelDeterminism, FaultedRunByteIdenticalAcrossThreadCounts) {
  const ChunkStore input = MakeInputStore(/*replication=*/2);
  JobConfig cfg = BaseConfig(GetParam());
  // Crashes, stragglers, transient errors, and silent corruption all on
  // at once: the draws must come out identical at every thread count.
  cfg.replication = 2;
  cfg.faults.crashes.push_back({.node = 2, .at_map_fraction = 0.5});
  cfg.faults.stragglers.push_back(
      {.node = 1, .cpu_factor = 2.0, .disk_factor = 1.5});
  cfg.faults.disk_error_rate = 0.05;
  cfg.faults.fetch_failure_rate = 0.05;
  cfg.faults.speculative_execution = true;
  cfg.faults.corruption_rate = 0.01;
  cfg.faults.torn_writes = true;
  ExpectThreadCountInvariant(ClickCountJob(), cfg, input, {2, 8});
}

// The reduce plane reserves the answer for map_output_records records, one
// per consumed record. That is a hint, not a bound: an answer twice as
// large must come out whole and in task order.
TEST_P(ParallelDeterminism, AnswerOutgrowsTheReservation) {
  const ChunkStore input = MakeInputStore();
  JobConfig cfg = BaseConfig(GetParam());
  cfg.map_side_combine = false;  // one map output record per click
  JobResult sequential;
  ExpectThreadCountInvariant(TwicePerClickJob(), cfg, input, {4},
                             &sequential);
  EXPECT_EQ(sequential.outputs.size(),
            2 * sequential.metrics.map_output_records);
  EXPECT_EQ(RecordCounts(sequential.outputs), TwicePerClickReference(input));
}

// A map that emits nothing: the reservation is 0 and the answer is empty.
TEST_P(ParallelDeterminism, EmptyAnswerFromASilentMap) {
  const ChunkStore input = MakeInputStore();
  JobSpec spec = ClickCountJob();
  spec.mapper = []() { return std::make_unique<SilentMapper>(); };
  JobResult sequential;
  ExpectThreadCountInvariant(spec, BaseConfig(GetParam()), input, {4},
                             &sequential);
  EXPECT_EQ(sequential.metrics.map_output_records, 0u);
  EXPECT_TRUE(sequential.outputs.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ParallelDeterminism,
    ::testing::Values(EngineKind::kSortMerge, EngineKind::kMRHash,
                      EngineKind::kIncHash, EngineKind::kDincHash),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      std::string name(EngineKindName(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace onepass
