#include "src/dfs/chunk_reader.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/dfs/chunk_store.h"
#include "src/sim/fault_injector.h"

namespace onepass {
namespace {

ChunkStore MakeStore(int nodes, int replication) {
  ChunkStore store(/*chunk_bytes=*/256, nodes, replication);
  for (int i = 0; i < 200; ++i) {
    store.Append("key" + std::to_string(i), "value" + std::to_string(i));
  }
  store.Seal();
  return store;
}

std::string Flatten(const KvBuffer& buf) {
  return std::string(buf.data());
}

TEST(ChunkReaderTest, CleanReadRoundTrips) {
  const ChunkStore store = MakeStore(4, 2);
  ASSERT_GT(store.chunks().size(), 1u);
  ChunkReader reader(&store, IntegrityConfig{}, /*plan=*/nullptr);
  for (size_t c = 0; c < store.chunks().size(); ++c) {
    ChunkReadStats stats;
    Result<KvBuffer> got = reader.Read(static_cast<int>(c), &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(Flatten(got.value()), Flatten(store.chunks()[c].records));
    EXPECT_EQ(got.value().count(), store.chunks()[c].records.count());
    EXPECT_EQ(stats.replica_reads, 1);
    EXPECT_EQ(stats.quarantined, 0);
    EXPECT_EQ(stats.rereplicated_bytes, 0u);
    EXPECT_GT(stats.verify_bytes, 0u);
    EXPECT_EQ(reader.replicas(static_cast<int>(c)),
              store.chunks()[c].replicas);
  }
}

TEST(ChunkReaderTest, ZeroRatePlanNeverFires) {
  const ChunkStore store = MakeStore(4, 2);
  sim::FaultConfig fc;  // corruption_rate = 0
  const sim::FaultPlan plan(fc, /*seed=*/7);
  ChunkReader reader(&store, IntegrityConfig{}, &plan);
  for (size_t c = 0; c < store.chunks().size(); ++c) {
    ChunkReadStats stats;
    ASSERT_TRUE(reader.Read(static_cast<int>(c), &stats).ok());
    EXPECT_EQ(stats.quarantined, 0);
  }
}

TEST(ChunkReaderTest, QuarantinesBadReplicaAndFailsOver) {
  const ChunkStore store = MakeStore(/*nodes=*/6, /*replication=*/3);
  sim::FaultConfig fc;
  fc.corruption_rate = 0.5;
  fc.torn_writes = true;
  const sim::FaultPlan plan(fc, /*seed=*/11);

  int total_quarantined = 0;
  ChunkReader reader(&store, IntegrityConfig{}, &plan);
  for (size_t c = 0; c < store.chunks().size(); ++c) {
    ChunkReadStats stats;
    Result<KvBuffer> got = reader.Read(static_cast<int>(c), &stats);
    if (!got.ok()) {
      // All three copies bad — legitimate under a 0.5 rate.
      EXPECT_TRUE(got.status().IsCorruption());
      EXPECT_EQ(stats.quarantined, 3);
      continue;
    }
    EXPECT_EQ(Flatten(got.value()), Flatten(store.chunks()[c].records));
    // One extra replica read per quarantined copy.
    EXPECT_EQ(stats.replica_reads, stats.quarantined + 1);
    total_quarantined += stats.quarantined;
    if (stats.quarantined > 0) {
      // Recovery restored the replication factor with fresh holders.
      const std::vector<int>& view = reader.replicas(static_cast<int>(c));
      EXPECT_EQ(view.size(), store.chunks()[c].replicas.size());
      EXPECT_EQ(stats.rereplicated_bytes,
                static_cast<uint64_t>(stats.quarantined) *
                    store.chunks()[c].records.bytes());
      for (int b = 0; b < stats.quarantined; ++b) {
        SCOPED_TRACE(c);
        // No quarantined node may remain in the view.
      }
    }
  }
  // At a 0.5 rate over many (chunk, node) streams, some must fire.
  EXPECT_GT(total_quarantined, 0);
}

TEST(ChunkReaderTest, AllReplicasBadIsCorruption) {
  const ChunkStore store = MakeStore(4, 2);
  sim::FaultConfig fc;
  fc.corruption_rate = 0.999999;  // every (chunk, node) stream fires
  const sim::FaultPlan plan(fc, /*seed=*/3);
  ChunkReader reader(&store, IntegrityConfig{}, &plan);
  ChunkReadStats stats;
  Result<KvBuffer> got = reader.Read(0, &stats);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsCorruption());
  EXPECT_EQ(stats.quarantined, 2);
}

TEST(ChunkReaderTest, SameSeedSamePlanIsDeterministic) {
  const ChunkStore store = MakeStore(6, 3);
  sim::FaultConfig fc;
  fc.corruption_rate = 0.4;
  fc.torn_writes = true;
  const sim::FaultPlan plan_a(fc, 19), plan_b(fc, 19);
  ChunkReader ra(&store, IntegrityConfig{}, &plan_a);
  ChunkReader rb(&store, IntegrityConfig{}, &plan_b);
  for (size_t c = 0; c < store.chunks().size(); ++c) {
    ChunkReadStats sa, sb;
    Result<KvBuffer> ga = ra.Read(static_cast<int>(c), &sa);
    Result<KvBuffer> gb = rb.Read(static_cast<int>(c), &sb);
    EXPECT_EQ(ga.ok(), gb.ok());
    EXPECT_EQ(sa.replica_reads, sb.replica_reads);
    EXPECT_EQ(sa.quarantined, sb.quarantined);
    EXPECT_EQ(sa.torn, sb.torn);
    EXPECT_EQ(sa.rereplicated_bytes, sb.rereplicated_bytes);
    EXPECT_EQ(ra.replicas(static_cast<int>(c)),
              rb.replicas(static_cast<int>(c)));
  }
}

}  // namespace
}  // namespace onepass
