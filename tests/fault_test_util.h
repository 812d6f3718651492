// The cluster and input the fault-tolerance, integrity and checkpoint-
// recovery tests share: 20,000 seed-31 clicks over 800 users in 32 KB
// chunks on four nodes, so ~40 single-push maps feed each of the 8
// reducers ~40 shuffle segments; 64 KB of reduce memory, map-side
// combine, outputs collected.

#ifndef ONEPASS_TESTS_FAULT_TEST_UTIL_H_
#define ONEPASS_TESTS_FAULT_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/mr/cluster.h"
#include "src/workloads/clickstream.h"

namespace onepass {

inline constexpr EngineKind kAllEngines[] = {
    EngineKind::kSortMerge, EngineKind::kMRHash, EngineKind::kIncHash,
    EngineKind::kDincHash};

inline ChunkStore FaultInput(int replication, uint64_t num_clicks = 20'000) {
  ClickStreamConfig clicks;
  clicks.num_clicks = num_clicks;
  clicks.num_users = 800;
  clicks.seed = 31;
  ChunkStore input(32 << 10, 4, replication);
  GenerateClickStream(clicks, &input);
  return input;
}

inline JobConfig FaultConfigFor(EngineKind engine, int replication) {
  JobConfig cfg;
  cfg.engine = engine;
  cfg.cluster.nodes = 4;
  cfg.cluster.cores_per_node = 2;
  cfg.cluster.map_slots = 2;
  cfg.cluster.reduce_slots = 2;
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = 32 << 10;
  cfg.map_buffer_bytes = 128 << 10;
  cfg.reduce_memory_bytes = 64 << 10;
  cfg.map_side_combine = true;
  cfg.collect_outputs = true;
  cfg.expected_keys_per_reducer = 150;
  cfg.expected_bytes_per_reducer = 64 << 10;
  cfg.replication = replication;
  return cfg;
}

// A count answer as key -> count; a key emitted twice fails the test.
inline std::map<std::string, uint64_t> CountsOf(
    const std::vector<Record>& outs) {
  std::map<std::string, uint64_t> got;
  for (const Record& rec : outs) {
    EXPECT_EQ(got.count(rec.key), 0u) << "duplicate key " << rec.key;
    got[rec.key] = std::stoull(rec.value);
  }
  return got;
}

}  // namespace onepass

#endif  // ONEPASS_TESTS_FAULT_TEST_UTIL_H_
