// The node combine tier must be invisible to the answer (DESIGN.md
// §5.10): with combine_scope = kNode every engine produces exactly the
// records it produces under kTask — on clean runs, under fault schedules
// (the combined push is lineage of every contributing map task), at every
// data-plane thread count, with and without the block codec, under both
// shuffle modes, and when node_combine_budget_bytes forces shards onto the
// FREQUENT-sketch fallback. Only the byte/time accounting may move; the
// output multiset may not.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "src/mr/cluster.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/jobs.h"
#include "tests/test_fingerprint.h"

namespace onepass {
namespace {

// Output iterator that renders multiset-difference elements into a
// comma-separated string for failure messages.
struct MultisetDiffAppender {
  using iterator_category = std::output_iterator_tag;
  using value_type = void;
  using difference_type = void;
  using pointer = void;
  using reference = void;
  std::string* out;
  explicit MultisetDiffAppender(std::string* s) : out(s) {}
  MultisetDiffAppender& operator=(const std::string& v) {
    if (!out->empty()) *out += ", ";
    *out += v;
    return *this;
  }
  MultisetDiffAppender& operator*() { return *this; }
  MultisetDiffAppender& operator++() { return *this; }
  MultisetDiffAppender& operator++(int) { return *this; }
};

ChunkStore MakeClickStore(int replication = 1) {
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
  cfg.map_side_combine = true;  // kNode needs a combine function on SM/MR
  cfg.collect_outputs = true;
  cfg.expected_keys_per_reducer = 150;
  cfg.expected_bytes_per_reducer = 64 << 10;
  return cfg;
}

// Runs the job under kTask and kNode for every codec x thread-count x
// shuffle-mode combination and compares the answers. Cross-scope
// comparison is outputs-only: the node-combine counters (and the shrunken
// shuffle volume) make Serialize() differ between scopes by design.
void ExpectNodeCombineInvisible(const JobSpec& job, const JobConfig& base,
                                const ChunkStore& input,
                                uint64_t budget_bytes = 0) {
  for (const BlockCodecKind codec :
       {BlockCodecKind::kNone, BlockCodecKind::kLz}) {
    for (const ShuffleMode shuffle :
         {ShuffleMode::kDisk, ShuffleMode::kResident}) {
      for (const int threads : {1, 8}) {
        JobConfig task = base;
        task.block_codec = codec;
        task.shuffle_mode = shuffle;
        task.data_plane_threads = threads;
        task.combine_scope = CombineScope::kTask;
        auto flat = LocalCluster::RunJob(job, task, input);
        ASSERT_TRUE(flat.ok()) << flat.status().ToString();

        JobConfig node = task;
        node.combine_scope = CombineScope::kNode;
        node.node_combine_budget_bytes = budget_bytes;
        auto tiered = LocalCluster::RunJob(job, node, input);
        ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();

        EXPECT_EQ(SortedOutputs(*tiered), SortedOutputs(*flat))
            << "kNode changed the answer (codec="
            << (codec == BlockCodecKind::kLz ? "lz" : "none") << " shuffle="
            << (shuffle == ShuffleMode::kResident ? "resident" : "disk")
            << " threads=" << threads << ")";
        // The tier engaged, and kTask runs charge none of its counters.
        EXPECT_GT(tiered->metrics.node_combine_tasks, 0u);
        EXPECT_GT(tiered->metrics.node_combine_input_records, 0u);
        EXPECT_EQ(flat->metrics.node_combine_tasks, 0u);
        EXPECT_EQ(flat->metrics.node_combine_input_records, 0u);
        // The point of the tier: never more shuffle traffic than kTask.
        EXPECT_LE(tiered->metrics.shuffle_bytes, flat->metrics.shuffle_bytes);
      }
    }
  }
}

class NodeCombineEquivalence
    : public ::testing::TestWithParam<EngineKind> {};

TEST_P(NodeCombineEquivalence, CleanRunSameAnswer) {
  const ChunkStore input = MakeClickStore();
  ExpectNodeCombineInvisible(ClickCountJob(), BaseConfig(GetParam()), input);
}

TEST_P(NodeCombineEquivalence, FaultedRunSameAnswer) {
  // A mid-map crash loses node-feed contributions and combined pushes
  // together; recovery must re-run the contributing maps (generalized
  // lost-output lineage) and converge to the same answer.
  const ChunkStore input = MakeClickStore(/*replication=*/2);
  JobConfig cfg = BaseConfig(GetParam());
  cfg.replication = 2;
  cfg.faults.crashes.push_back({.node = 2, .at_map_fraction = 0.5});
  cfg.faults.disk_error_rate = 0.05;
  cfg.faults.fetch_failure_rate = 0.05;
  cfg.faults.corruption_rate = 0.01;
  cfg.faults.torn_writes = true;
  ExpectNodeCombineInvisible(ClickCountJob(), cfg, input);
}

TEST_P(NodeCombineEquivalence, ReducePhaseCrashSameAnswer) {
  // A crash during the shuffle kills a node after its combined push was
  // published: the lost push re-materializes through dep re-execution
  // before the combine task re-runs.
  const ChunkStore input = MakeClickStore(/*replication=*/2);
  JobConfig cfg = BaseConfig(GetParam());
  cfg.replication = 2;
  cfg.faults.crashes.push_back({.node = 1, .at_reduce_fraction = 0.3});
  ExpectNodeCombineInvisible(ClickCountJob(), cfg, input);
}

TEST_P(NodeCombineEquivalence, BudgetPressureSketchFallbackSameAnswer) {
  // The minimum legal budget (4 KB across 10 reducer shards) forces every
  // busy shard over its share, degrading it to the FREQUENT sketch.
  // Passthrough records reach the reducers uncombined but exactly once,
  // so the answer must not move — and the shard counter must show the
  // pressure engaged.
  const ChunkStore input = MakeClickStore();
  const JobConfig base = BaseConfig(GetParam());
  ExpectNodeCombineInvisible(ClickCountJob(), base, input,
                             /*budget_bytes=*/4096);

  JobConfig node = base;
  node.combine_scope = CombineScope::kNode;
  node.node_combine_budget_bytes = 4096;
  auto tiered = LocalCluster::RunJob(ClickCountJob(), node, input);
  ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();
  // The sorted (kSortCombine) discipline streams and never degrades; the
  // hash disciplines must have hit the sketch under a 4 KB budget.
  if (GetParam() != EngineKind::kSortMerge) {
    EXPECT_GT(tiered->metrics.node_combine_sketch_shards, 0u);
  }
}

TEST_P(NodeCombineEquivalence, NodeRunByteIdenticalAcrossThreadCounts) {
  // Within kNode the whole run — every counter in Serialize() plus the
  // answer — must be byte-identical at any thread count: the node barrier
  // merges feeds in task-id order regardless of which thread ran them.
  const ChunkStore input = MakeClickStore();
  JobConfig cfg = BaseConfig(GetParam());
  cfg.combine_scope = CombineScope::kNode;
  cfg.data_plane_threads = 1;
  auto sequential = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  const std::string want =
      sequential->metrics.Serialize() + SortedOutputs(*sequential);
  for (int threads : {2, 8}) {
    cfg.data_plane_threads = threads;
    auto parallel = LocalCluster::RunJob(ClickCountJob(), cfg, input);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(parallel->metrics.Serialize() + SortedOutputs(*parallel), want)
        << "threads=" << threads;
  }
}

TEST_P(NodeCombineEquivalence, ThresholdWorkloadFlagsSameKeys) {
  // A stateful threshold workload. The incremental reducer's early
  // output reports the count *at the moment of crossing*, which legally
  // depends on delivery granularity — the node tier hands the reducer
  // one big folded delta instead of many small ones — so the invariant
  // here is the flagged key set, not the crossing counts. (Sessionization
  // is deliberately absent from this suite: its combine function is
  // order-sensitive inside the bounded session buffer, and
  // combine_scope = kNode — like any combiner tier — only preserves
  // answers for commutative-associative combines; see the combine_scope
  // contract in config.h and DESIGN.md §5.10.)
  const ChunkStore input = MakeClickStore();
  const JobConfig base = BaseConfig(GetParam());
  const JobSpec job = FrequentUserJob(/*threshold=*/10);
  for (const ShuffleMode shuffle :
       {ShuffleMode::kDisk, ShuffleMode::kResident}) {
    for (const int threads : {1, 8}) {
      JobConfig task = base;
      task.shuffle_mode = shuffle;
      task.data_plane_threads = threads;
      task.combine_scope = CombineScope::kTask;
      auto flat = LocalCluster::RunJob(job, task, input);
      ASSERT_TRUE(flat.ok()) << flat.status().ToString();

      JobConfig node = task;
      node.combine_scope = CombineScope::kNode;
      auto tiered = LocalCluster::RunJob(job, node, input);
      ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();

      // Compare as a deduplicated set: DINC's early output may re-flag a
      // key whose resident state was evicted and re-admitted mid-stream,
      // and that duplication is granularity-dependent too.
      auto keys = [](const JobResult& r) {
        std::vector<std::string> k;
        k.reserve(r.outputs.size());
        for (const Record& rec : r.outputs) k.push_back(rec.key);
        std::sort(k.begin(), k.end());
        k.erase(std::unique(k.begin(), k.end()), k.end());
        return k;
      };
      const std::vector<std::string> kt = keys(*tiered);
      const std::vector<std::string> kf = keys(*flat);
      std::string only_tiered, only_flat;
      std::set_difference(kt.begin(), kt.end(), kf.begin(), kf.end(),
                          MultisetDiffAppender(&only_tiered));
      std::set_difference(kf.begin(), kf.end(), kt.begin(), kt.end(),
                          MultisetDiffAppender(&only_flat));
      EXPECT_TRUE(only_tiered.empty() && only_flat.empty())
          << "kNode changed the flagged key set (shuffle="
          << (shuffle == ShuffleMode::kResident ? "resident" : "disk")
          << " threads=" << threads << ")\n  only under kNode: ["
          << only_tiered << "]\n  only under kTask: [" << only_flat << "]";
      EXPECT_GT(tiered->metrics.node_combine_tasks, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, NodeCombineEquivalence,
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
