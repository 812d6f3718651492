// CheckpointLadder (DESIGN.md §5.6): durable-instance registration,
// replica placement, crash pruning, the newest-first restore choice over
// chains of delta images, its agreement with the FaultPlan's pure draws,
// and the restore op chain, driven directly without a replay.

#include "src/mr/checkpoint_ladder.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/fault_injector.h"

namespace onepass {
namespace {

constexpr uint32_t kGate0 = 10;
constexpr uint32_t kGate1 = 20;

JobConfig LadderConfig(double corruption_rate) {
  JobConfig cfg;
  cfg.cluster.nodes = 4;
  cfg.checkpoint_replication = 3;
  cfg.faults.corruption_rate = corruption_rate;
  return cfg;
}

CheckpointMark Mark(uint32_t watermark, uint64_t bytes, uint32_t gate) {
  CheckpointMark mark;
  mark.watermark = watermark;
  mark.bytes = bytes;
  mark.raw_bytes = 2 * bytes;
  mark.gate_op = gate;
  return mark;
}

// `tasks` reduce tasks, each with two checkpoints: watermark 4 (1000
// bytes) at op kGate0 and watermark 8 (1100 bytes) at op kGate1.
std::vector<std::vector<CheckpointMark>> TwoMarksEach(int tasks) {
  return std::vector<std::vector<CheckpointMark>>(
      static_cast<size_t>(tasks),
      {Mark(4, 1000, kGate0), Mark(8, 1100, kGate1)});
}

TEST(CheckpointLadderTest, NewestDurableInstanceFirst) {
  const JobConfig cfg = LadderConfig(0);
  const sim::FaultPlan plan(cfg.faults, cfg.seed);
  CheckpointLadder ladder(cfg, plan, TwoMarksEach(1));

  CheckpointLadder::Choice none = ladder.Choose(0);
  EXPECT_FALSE(none.had_durable);
  EXPECT_LT(none.node, 0);
  EXPECT_EQ(ladder.Watermark(0), 0u);

  ladder.OpDone(0, kGate0 + 1, 3);  // not a gate: nothing becomes durable
  EXPECT_FALSE(ladder.Choose(0).had_durable);
  ladder.OpDone(0, kGate0, 0);
  ladder.OpDone(0, kGate1, 1);
  ladder.OpDone(0, kGate1, 2);  // a backup at the same gate: not re-placed

  const CheckpointLadder::Choice choice = ladder.Choose(0);
  EXPECT_TRUE(choice.had_durable);
  EXPECT_EQ(choice.ordinal, 1);
  EXPECT_EQ(choice.watermark, 8u);
  EXPECT_EQ(choice.node, 1);  // slot 0 is the writer
  EXPECT_TRUE(choice.tried.empty());
  EXPECT_EQ(ladder.Watermark(0), 8u);
}

TEST(CheckpointLadderTest, WalksSlotsInOrderPastCorruptReplicas) {
  const JobConfig cfg = LadderConfig(0.5);
  const sim::FaultPlan plan(cfg.faults, cfg.seed);
  constexpr int kTasks = 64;
  CheckpointLadder ladder(
      cfg, plan,
      std::vector<std::vector<CheckpointMark>>(kTasks,
                                               {Mark(4, 1000, kGate0)}));
  int skipped_then_restored = 0;
  for (int r = 0; r < kTasks; ++r) {
    const int writer = r % 4;
    ladder.OpDone(r, kGate0, writer);
    const CheckpointLadder::Choice choice = ladder.Choose(r);
    // Replicas sit on the writer and the next two nodes, slots 0..2.
    std::vector<CheckpointLadder::TriedReplica> want_tried;
    int want_node = -1;
    for (int slot = 0; slot < 3; ++slot) {
      const int node = (writer + slot) % 4;
      if (plan.CheckpointCorruptions(r, 0, slot) > 0) {
        want_tried.push_back({slot, node, 1000});
        continue;
      }
      want_node = node;
      break;
    }
    EXPECT_TRUE(choice.had_durable);
    EXPECT_EQ(choice.node, want_node) << "task " << r;
    ASSERT_EQ(choice.tried.size(), want_tried.size()) << "task " << r;
    for (size_t i = 0; i < want_tried.size(); ++i) {
      EXPECT_EQ(choice.tried[i].slot, want_tried[i].slot) << "task " << r;
      EXPECT_EQ(choice.tried[i].node, want_tried[i].node) << "task " << r;
      EXPECT_EQ(choice.tried[i].bytes, 1000u);
    }
    EXPECT_EQ(ladder.Watermark(r), want_node >= 0 ? 4u : 0u);
    if (want_node >= 0 && !want_tried.empty()) ++skipped_then_restored;
  }
  EXPECT_GT(skipped_then_restored, 0) << "no task exercised the ladder";
}

TEST(CheckpointLadderTest, SlotIdsSurviveCrashPruning) {
  const JobConfig cfg = LadderConfig(0.5);
  const sim::FaultPlan plan(cfg.faults, cfg.seed);
  // A task whose slot 1 is corrupt and slot 2 clean: after the writer
  // (slot 0) dies, the ladder must still draw the survivors as slots 1
  // and 2 — renumbering them 0 and 1 would change the draws.
  int r = 0;
  while (r < 256 && !(plan.CheckpointCorruptions(r, 0, 1) > 0 &&
                      plan.CheckpointCorruptions(r, 0, 2) == 0)) {
    ++r;
  }
  ASSERT_LT(r, 256);
  CheckpointLadder ladder(
      cfg, plan,
      std::vector<std::vector<CheckpointMark>>(static_cast<size_t>(r + 1),
                                               {Mark(4, 1000, kGate0)}));
  ladder.OpDone(r, kGate0, 0);
  ladder.NodeDied(0);
  const CheckpointLadder::Choice choice = ladder.Choose(r);
  ASSERT_EQ(choice.tried.size(), 1u);
  EXPECT_EQ(choice.tried[0].slot, 1);
  EXPECT_EQ(choice.tried[0].node, 1);
  EXPECT_EQ(choice.node, 2);
}

TEST(CheckpointLadderTest, PlacementSkipsDeadNodesAndLossFallsBack) {
  const JobConfig cfg = LadderConfig(0);
  const sim::FaultPlan plan(cfg.faults, cfg.seed);
  CheckpointLadder ladder(cfg, plan, TwoMarksEach(1));
  ladder.NodeDied(0);
  // Writer 3, replicas round-robin past the dead node 0: 3, 1, 2.
  ladder.OpDone(0, kGate0, 3);
  EXPECT_EQ(ladder.Choose(0).node, 3);
  ladder.NodeDied(3);
  EXPECT_EQ(ladder.Choose(0).node, 1);
  ladder.NodeDied(1);
  EXPECT_EQ(ladder.Choose(0).node, 2);
  ladder.NodeDied(2);
  const CheckpointLadder::Choice lost = ladder.Choose(0);
  EXPECT_TRUE(lost.had_durable);
  EXPECT_LT(lost.node, 0);
  EXPECT_TRUE(lost.tried.empty());
  EXPECT_EQ(ladder.Watermark(0), 0u);
}

TEST(CheckpointLadderTest, EveryReplicaCorruptFallsBackToFullReplay) {
  const JobConfig cfg = LadderConfig(0.9);
  const sim::FaultPlan plan(cfg.faults, cfg.seed);
  auto all_corrupt = [&plan](int r) {
    for (uint32_t ordinal = 0; ordinal < 2; ++ordinal) {
      for (int slot = 0; slot < 3; ++slot) {
        if (plan.CheckpointCorruptions(r, ordinal, slot) == 0) return false;
      }
    }
    return true;
  };
  int r = 0;
  while (r < 256 && !all_corrupt(r)) ++r;
  ASSERT_LT(r, 256);
  CheckpointLadder ladder(cfg, plan, TwoMarksEach(r + 1));
  ladder.OpDone(r, kGate0, 2);
  ladder.OpDone(r, kGate1, 2);
  const CheckpointLadder::Choice choice = ladder.Choose(r);
  EXPECT_TRUE(choice.had_durable);
  EXPECT_LT(choice.node, 0);
  EXPECT_EQ(ladder.Watermark(r), 0u);
  // Every replica was read and rejected: the newer instance's slots
  // first, then the older one's.
  ASSERT_EQ(choice.tried.size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(choice.tried[i].slot, static_cast<int>(i % 3));
    EXPECT_EQ(choice.tried[i].node, static_cast<int>((2 + i % 3) % 4));
    EXPECT_EQ(choice.tried[i].bytes, i < 3 ? 1100u : 1000u);
  }
}

TEST(CheckpointLadderTest, RestoreChainReadsBacksOffAndDecodes) {
  JobConfig cfg = LadderConfig(0);
  cfg.block_codec = BlockCodecKind::kLz;
  const sim::FaultPlan plan(cfg.faults, cfg.seed);
  const CheckpointLadder ladder(cfg, plan, TwoMarksEach(1));
  CheckpointLadder::Choice choice;
  choice.ordinal = 1;
  choice.watermark = 8;
  choice.node = 2;
  choice.tried = {{0, 1, 1100}, {0, 3, 1000}};

  // Attempt on node 3: the second tried replica is local.
  const CostTrace chain = ladder.RestoreChain(0, choice, 3);
  ASSERT_EQ(chain.ops.size(), 6u);
  EXPECT_EQ(chain.ops[0].resource, OpResource::kNet);
  EXPECT_EQ(chain.ops[0].bytes, 1100u);
  EXPECT_EQ(chain.ops[1].resource, OpResource::kStall);
  EXPECT_GT(chain.ops[1].cpu_s, 0);
  EXPECT_EQ(chain.ops[2].resource, OpResource::kDisk);
  EXPECT_TRUE(chain.ops[2].is_read);
  EXPECT_EQ(chain.ops[2].bytes, 1000u);
  EXPECT_EQ(chain.ops[3].resource, OpResource::kStall);
  EXPECT_GT(chain.ops[3].cpu_s, chain.ops[1].cpu_s);  // exponential
  EXPECT_EQ(chain.ops[4].resource, OpResource::kNet);
  EXPECT_EQ(chain.ops[4].bytes, 1100u);  // the chosen instance's image
  EXPECT_EQ(chain.ops[5].resource, OpResource::kCpu);
  EXPECT_DOUBLE_EQ(chain.ops[5].cpu_s, cfg.costs.decompress_byte_s * 2200);
  for (const TraceOp& op : chain.ops) EXPECT_EQ(op.tag, OpTag::kCheckpoint);
}

// ---- chains of delta images ----

// One reduce task's marks with the given chain lengths: checkpoint c has
// watermark 4(c + 1) and gate op 10(c + 1); a full image measures 1000 + c
// framed bytes, a delta 100 + c, and either has twice that raw.
std::vector<CheckpointMark> ChainMarks(std::initializer_list<uint32_t> links) {
  std::vector<CheckpointMark> marks;
  for (const uint32_t l : links) {
    const uint32_t c = static_cast<uint32_t>(marks.size());
    CheckpointMark mark = Mark(4 * (c + 1), (l == 1 ? 1000 : 100) + c,
                               10 * (c + 1));
    mark.links = l;
    marks.push_back(mark);
  }
  return marks;
}

// The first task in [0, 20000) whose per-ordinal corruption draws match
// `want` (ordinal -> whether every one of its 3 slots is corrupt).
int FindTask(const sim::FaultPlan& plan,
             const std::vector<std::pair<uint32_t, bool>>& want) {
  for (int r = 0; r < 20000; ++r) {
    bool match = true;
    for (const auto& [ordinal, all_corrupt] : want) {
      bool every = true;
      for (int slot = 0; slot < 3; ++slot) {
        every = every && plan.CheckpointCorruptions(r, ordinal, slot) > 0;
      }
      match = match && every == all_corrupt;
    }
    if (match) return r;
  }
  return -1;
}

// The replicas a walk of `ordinal`'s slots rejects before its first
// verifiable one, with the replicas on writer, writer + 1, writer + 2.
std::vector<CheckpointLadder::TriedReplica> Rejected(
    const sim::FaultPlan& plan, int r, uint32_t ordinal, int writer,
    uint64_t bytes) {
  std::vector<CheckpointLadder::TriedReplica> tried;
  for (int slot = 0; slot < 3; ++slot) {
    if (plan.CheckpointCorruptions(r, ordinal, slot) == 0) break;
    tried.push_back({slot, (writer + slot) % 4, bytes});
  }
  return tried;
}

void ExpectTried(const std::vector<CheckpointLadder::TriedReplica>& got,
                 const std::vector<CheckpointLadder::TriedReplica>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].slot, want[i].slot) << i;
    EXPECT_EQ(got[i].node, want[i].node) << i;
    EXPECT_EQ(got[i].bytes, want[i].bytes) << i;
  }
}

TEST(CheckpointLadderTest, CorruptMiddleLinkFallsBackToAWholeChain) {
  const JobConfig cfg = LadderConfig(0.5);
  const sim::FaultPlan plan(cfg.faults, cfg.seed);
  // Two chains: full 0, deltas 1-2; full 3, deltas 4-5.
  const std::vector<CheckpointMark> marks = ChainMarks({1, 2, 3, 1, 2, 3});
  auto ladder_for = [&](int r) {
    auto ladder = std::make_unique<CheckpointLadder>(
        cfg, plan,
        std::vector<std::vector<CheckpointMark>>(static_cast<size_t>(r + 1),
                                                 marks));
    for (const CheckpointMark& m : marks) ladder->OpDone(r, m.gate_op, r % 4);
    return ladder;
  };

  // Link 4 is corrupt everywhere: instances 4 and 5 are unusable, and the
  // newest whole chain is the full image 3. Link 3 is walked once, though
  // both candidates include it; instance 5's own replicas are never read.
  int r = FindTask(plan, {{3, false}, {4, true}});
  ASSERT_GE(r, 0);
  CheckpointLadder::Choice choice = ladder_for(r)->Choose(r);
  EXPECT_TRUE(choice.had_durable);
  EXPECT_EQ(choice.ordinal, 3);
  EXPECT_EQ(choice.watermark, 16u);
  EXPECT_TRUE(choice.base_nodes.empty());
  std::vector<CheckpointLadder::TriedReplica> want =
      Rejected(plan, r, 3, r % 4, 1003);
  for (int slot = 0; slot < 3; ++slot) {
    want.push_back({slot, (r % 4 + slot) % 4, 104});
  }
  ExpectTried(choice.tried, want);

  // The second chain's full image is corrupt everywhere: the ladder falls
  // back to the first chain's newest instance and reads all its links.
  r = FindTask(plan, {{0, false}, {1, false}, {2, false}, {3, true}});
  ASSERT_GE(r, 0);
  choice = ladder_for(r)->Choose(r);
  EXPECT_EQ(choice.ordinal, 2);
  EXPECT_EQ(choice.watermark, 12u);
  ASSERT_EQ(choice.base_nodes.size(), 2u);
  want.clear();
  for (int slot = 0; slot < 3; ++slot) {
    want.push_back({slot, (r % 4 + slot) % 4, 1003});
  }
  const uint64_t bytes[] = {1000, 101, 102};
  for (uint32_t k = 0; k < 3; ++k) {
    const auto rejected = Rejected(plan, r, k, r % 4, bytes[k]);
    want.insert(want.end(), rejected.begin(), rejected.end());
    const int holder = (r % 4 + static_cast<int>(rejected.size())) % 4;
    EXPECT_EQ(k < 2 ? choice.base_nodes[k] : choice.node, holder) << k;
  }
  ExpectTried(choice.tried, want);

  // Both full images corrupt everywhere: nothing is usable.
  r = FindTask(plan, {{0, true}, {3, true}});
  ASSERT_GE(r, 0);
  const auto lost = ladder_for(r);
  choice = lost->Choose(r);
  EXPECT_TRUE(choice.had_durable);
  EXPECT_LT(choice.node, 0);
  EXPECT_EQ(choice.tried.size(), 6u);
  EXPECT_EQ(lost->Watermark(r), 0u);
}

TEST(CheckpointLadderTest, LostMiddleLinkMakesNewerInstancesUnusable) {
  JobConfig cfg = LadderConfig(0);
  cfg.checkpoint_replication = 1;
  const sim::FaultPlan plan(cfg.faults, cfg.seed);
  CheckpointLadder ladder(cfg, plan, {ChainMarks({1, 2, 3})});
  ladder.OpDone(0, 10, 0);
  ladder.OpDone(0, 20, 1);
  ladder.OpDone(0, 30, 2);
  CheckpointLadder::Choice choice = ladder.Choose(0);
  EXPECT_EQ(choice.ordinal, 2);
  EXPECT_EQ(choice.node, 2);
  EXPECT_EQ(choice.base_nodes, (std::vector<int>{0, 1}));

  ladder.NodeDied(1);  // takes link 1, the only replica
  choice = ladder.Choose(0);
  EXPECT_EQ(choice.ordinal, 0);
  EXPECT_EQ(choice.node, 0);
  EXPECT_TRUE(choice.base_nodes.empty());
  EXPECT_TRUE(choice.tried.empty());
  EXPECT_EQ(ladder.Watermark(0), 4u);

  ladder.NodeDied(0);  // and the full image: full replay
  choice = ladder.Choose(0);
  EXPECT_TRUE(choice.had_durable);
  EXPECT_LT(choice.node, 0);
  EXPECT_EQ(ladder.Watermark(0), 0u);
}

TEST(CheckpointLadderTest, RestoreChainReadsEachLinkOnce) {
  JobConfig cfg = LadderConfig(0);
  cfg.block_codec = BlockCodecKind::kLz;
  const sim::FaultPlan plan(cfg.faults, cfg.seed);
  const CheckpointLadder ladder(cfg, plan, {ChainMarks({1, 2, 3})});
  CheckpointLadder::Choice choice;
  choice.ordinal = 2;
  choice.watermark = 12;
  choice.node = 3;
  choice.base_nodes = {1, 0};

  // Attempt on node 1, which holds the full image: a local read, then one
  // pull per delta, no wait between links, and one decode of the chain's
  // summed raw bytes.
  const CostTrace chain = ladder.RestoreChain(0, choice, 1);
  ASSERT_EQ(chain.ops.size(), 4u);
  EXPECT_EQ(chain.ops[0].resource, OpResource::kDisk);
  EXPECT_TRUE(chain.ops[0].is_read);
  EXPECT_EQ(chain.ops[0].bytes, 1000u);
  EXPECT_EQ(chain.ops[1].resource, OpResource::kNet);
  EXPECT_EQ(chain.ops[1].bytes, 101u);
  EXPECT_EQ(chain.ops[2].resource, OpResource::kNet);
  EXPECT_EQ(chain.ops[2].bytes, 102u);
  EXPECT_EQ(chain.ops[3].resource, OpResource::kCpu);
  EXPECT_DOUBLE_EQ(chain.ops[3].cpu_s,
                   cfg.costs.decompress_byte_s * (2000 + 202 + 204));
  for (const TraceOp& op : chain.ops) EXPECT_EQ(op.tag, OpTag::kCheckpoint);
}

TEST(CheckpointLadderTest, RestoreChainBacksOffOnlyAfterRejectedReplicas) {
  const JobConfig cfg = LadderConfig(0);
  const sim::FaultPlan plan(cfg.faults, cfg.seed);
  const CheckpointLadder ladder(cfg, plan, {ChainMarks({1, 2, 3})});
  CheckpointLadder::Choice choice;
  choice.ordinal = 2;
  choice.watermark = 12;
  choice.node = 2;
  choice.base_nodes = {0, 1};
  choice.tried = {{0, 3, 1000}, {1, 0, 101}};

  const CostTrace chain = ladder.RestoreChain(0, choice, 2);
  // Two rejected reads, each followed by a backoff; then the three links
  // back to back; no decode under kNone.
  const std::vector<OpResource> want = {
      OpResource::kNet,   OpResource::kStall, OpResource::kNet,
      OpResource::kStall, OpResource::kNet,   OpResource::kNet,
      OpResource::kDisk};
  ASSERT_EQ(chain.ops.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(chain.ops[i].resource, want[i]) << "op " << i;
  }
  // The fixed backoff: 0.05 s after the first rejection, doubled after
  // the second.
  EXPECT_DOUBLE_EQ(chain.ops[1].cpu_s, 0.05);
  EXPECT_DOUBLE_EQ(chain.ops[3].cpu_s, 0.1);
  EXPECT_EQ(chain.ops[0].bytes, 1000u);
  EXPECT_EQ(chain.ops[2].bytes, 101u);
  EXPECT_EQ(chain.ops[4].bytes, 1000u);
  EXPECT_EQ(chain.ops[5].bytes, 101u);
  EXPECT_EQ(chain.ops[6].bytes, 102u);
}

// ---- the ladder vs the plan's pure draws ----

TEST(CheckpointLadderTest, LadderMatchesPlanDrawsExactly) {
  JobConfig cfg = LadderConfig(0.5);
  cfg.checkpoint_replication = 2;
  const sim::FaultPlan plan(cfg.faults, 20110613);
  constexpr int kTasks = 100;
  const uint64_t bytes[] = {1000, 1100};  // TwoMarksEach's image sizes
  CheckpointLadder ladder(cfg, plan, TwoMarksEach(kTasks));
  int restored_newest = 0, restored_older = 0, full_replay = 0;
  for (int r = 0; r < kTasks; ++r) {
    const int writer = r % 4;
    ladder.OpDone(r, kGate0, writer);
    ladder.OpDone(r, kGate1, writer);
    // Predict the outcome from the pure draws alone: newest instance
    // first, replica slots in order (slot s on writer + s), a replica
    // usable iff its corruption chain is empty.
    std::vector<CheckpointLadder::TriedReplica> want_tried;
    int want_ordinal = -1, want_node = -1;
    uint64_t want_read = 0;
    for (int ordinal = 1; ordinal >= 0 && want_ordinal < 0; --ordinal) {
      for (int slot = 0; slot < 2; ++slot) {
        const int node = (writer + slot) % 4;
        want_read += bytes[ordinal];
        if (plan.CheckpointCorruptions(r, static_cast<uint32_t>(ordinal),
                                       slot) > 0) {
          want_tried.push_back({slot, node, bytes[ordinal]});
          continue;
        }
        want_ordinal = ordinal;
        want_node = node;
        break;
      }
    }

    const CheckpointLadder::Choice choice = ladder.Choose(r);
    SCOPED_TRACE("task " + std::to_string(r));
    EXPECT_TRUE(choice.had_durable);
    EXPECT_EQ(choice.ordinal, want_ordinal);
    EXPECT_EQ(choice.node, want_node);
    ExpectTried(choice.tried, want_tried);
    EXPECT_EQ(ladder.Watermark(r),
              want_ordinal < 0 ? 0u : 4u * static_cast<uint32_t>(
                                               want_ordinal + 1));
    if (want_ordinal < 0) {
      ++full_replay;
      continue;
    }
    // The restore reads every rejected replica and then the chosen one.
    uint64_t read = 0;
    for (const TraceOp& op : ladder.RestoreChain(r, choice, writer).ops) {
      if (op.resource == OpResource::kNet ||
          op.resource == OpResource::kDisk) {
        read += op.bytes;
      }
    }
    EXPECT_EQ(read, want_read);
    if (want_ordinal == 1) {
      ++restored_newest;
    } else {
      ++restored_older;
    }
  }
  // At rate 0.5 with 2x2 candidates, all three outcomes must occur: clean
  // newest, fallback to the older instance, and total loss (full replay).
  EXPECT_GT(restored_newest, 0);
  EXPECT_GT(restored_older, 0);
  EXPECT_GT(full_replay, 0);
}

}  // namespace
}  // namespace onepass
