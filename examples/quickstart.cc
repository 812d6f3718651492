// Quickstart: word count on the one-pass analytics platform.
//
// Shows the full public API surface:
//   1. define a Mapper and an IncrementalReducer (init/cb/fn),
//   2. load input into the mini-DFS (ChunkStore),
//   3. configure a job (engine, cluster shape, memory),
//   4. run it on the simulated cluster and inspect results.
//
// Build & run:  ./build/examples/quickstart

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/mr/cluster.h"
#include "src/workloads/count_workloads.h"

namespace {

using namespace onepass;

// Map: split a line into words, emit (word, 1) as a count-state.
class WordCountMapper : public Mapper {
 public:
  void Map(std::string_view /*key*/, std::string_view line,
           Emitter* out) override {
    size_t start = 0;
    for (size_t i = 0; i <= line.size(); ++i) {
      if (i == line.size() || line[i] == ' ') {
        if (i > start) out->Emit(line.substr(start, i - start), one_);
        start = i + 1;
      }
    }
  }

 private:
  const std::string one_ = EncodeCountState(1, false);
};

}  // namespace

int main() {
  // 1. Input: a few documents in the mini-DFS, chunked at 4 KB.
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

  // 2. The job: word-count mapper + the library's counting reducer
  //    (threshold 0 = output every word's total).
  JobSpec spec;
  spec.name = "word count";
  spec.mapper = [] { return std::make_unique<WordCountMapper>(); };
  spec.inc = [] { return std::make_unique<CountingIncReducer>(0); };
  spec.reducer = [] { return std::make_unique<CountingListReducer>(0); };

  // 3. Configuration: INC-hash engine (incremental, in-memory), with the
  //    map side combining counts before the shuffle.
  JobConfig cfg;
  cfg.engine = EngineKind::kIncHash;
  cfg.cluster.nodes = 4;
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = 4096;
  cfg.map_side_combine = true;
  cfg.collect_outputs = true;

  // 4. Run and inspect.
  auto result = LocalCluster::RunJob(spec, cfg, input);
  if (!result.ok()) {
    std::fprintf(stderr, "job failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("word count finished in %.3f simulated seconds "
              "(%d map tasks, %d reduce tasks)\n\n",
              result->running_time, result->map_tasks,
              result->reduce_tasks);
  std::printf("%-16s %8s\n", "word", "count");
  std::vector<Record> sorted = result->outputs;
  std::sort(sorted.begin(), sorted.end());
  for (const Record& r : sorted) {
    std::printf("%-16s %8s\n", r.key.c_str(), r.value.c_str());
  }
  // The job's counters, one "name=value" line each; zeros left out.
  std::printf("\nmetrics:\n");
  std::istringstream lines(result->metrics.Serialize());
  for (std::string line; std::getline(lines, line);) {
    if (!line.ends_with("=0")) std::printf("  %s\n", line.c_str());
  }
  std::printf("cpu:             map %.3f s, reduce %.3f s\n",
              result->map_cpu_s, result->reduce_cpu_s);
  return 0;
}
