// Tests for the discrete-event simulation core.

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/resources.h"
#include "src/sim/timeline.h"

namespace onepass::sim {
namespace {

TEST(EngineTest, EventsRunInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.ScheduleAt(3.0, [&] { order.push_back(3); });
  engine.ScheduleAt(1.0, [&] { order.push_back(1); });
  engine.ScheduleAt(2.0, [&] { order.push_back(2); });
  EXPECT_DOUBLE_EQ(engine.Run(), 3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EngineTest, TiesBreakByInsertionOrder) {
  Engine engine;
  std::vector<int> order;
  engine.ScheduleAt(1.0, [&] { order.push_back(0); });
  engine.ScheduleAt(1.0, [&] { order.push_back(1); });
  engine.ScheduleAt(1.0, [&] { order.push_back(2); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// Simultaneous events order by (time, stream, seq): lower stream tags
// first regardless of insertion order, then insertion order within a
// stream. Multi-job replays lean on this — job j's events carry stream
// j + 1, so cross-job ties resolve by job, not by scheduling accident.
TEST(EngineTest, TiesBreakByStreamThenInsertion) {
  Engine engine;
  std::vector<int> order;
  engine.ScheduleAtStream(1.0, 2, [&] { order.push_back(20); });
  engine.ScheduleAtStream(1.0, 1, [&] { order.push_back(10); });
  engine.ScheduleAtStream(1.0, 2, [&] { order.push_back(21); });
  engine.ScheduleAtStream(1.0, 0, [&] { order.push_back(0); });
  engine.ScheduleAtStream(1.0, 1, [&] { order.push_back(11); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 10, 11, 20, 21}));
}

// ScheduleAt / ScheduleAfter inherit the stream of the event whose
// callback is currently running, so a job's whole causal chain stays in
// its stream without tagging every call site.
TEST(EngineTest, ScheduledCallbacksInheritCurrentStream) {
  Engine engine;
  std::vector<int> order;
  engine.ScheduleAtStream(1.0, 2, [&] {
    EXPECT_EQ(engine.current_stream(), 2u);
    // Fires at t=2 from stream 2; must run after the stream-1 event
    // scheduled below at the same time.
    engine.ScheduleAfter(1.0, [&] {
      EXPECT_EQ(engine.current_stream(), 2u);
      order.push_back(2);
    });
  });
  engine.ScheduleAtStream(1.0, 1, [&] {
    engine.ScheduleAt(2.0, [&] { order.push_back(1); });
  });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EngineTest, CallbacksCanScheduleMore) {
  Engine engine;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) engine.ScheduleAfter(1.0, chain);
  };
  engine.ScheduleAt(0.0, chain);
  EXPECT_DOUBLE_EQ(engine.Run(), 4.0);
  EXPECT_EQ(fired, 5);
}

TEST(ServerTest, SingleServerSerializes) {
  Engine engine;
  Server disk(&engine, 1, "disk");
  std::vector<double> done_times;
  for (int i = 0; i < 3; ++i) {
    disk.Submit(2.0, [&] { done_times.push_back(engine.now()); });
  }
  engine.Run();
  ASSERT_EQ(done_times.size(), 3u);
  EXPECT_DOUBLE_EQ(done_times[0], 2.0);
  EXPECT_DOUBLE_EQ(done_times[1], 4.0);
  EXPECT_DOUBLE_EQ(done_times[2], 6.0);
  EXPECT_DOUBLE_EQ(disk.busy_time(), 6.0);
}

TEST(ServerTest, MultiServerRunsInParallel) {
  Engine engine;
  Server cpu(&engine, 4, "cpu");
  std::vector<double> done_times;
  for (int i = 0; i < 4; ++i) {
    cpu.Submit(3.0, [&] { done_times.push_back(engine.now()); });
  }
  EXPECT_DOUBLE_EQ(engine.Run(), 3.0);
  for (double t : done_times) EXPECT_DOUBLE_EQ(t, 3.0);
}

TEST(ServerTest, QueueDrainsInFifoOrder) {
  Engine engine;
  Server cpu(&engine, 1, "cpu");
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    cpu.Submit(1.0, [&order, i] { order.push_back(i); });
  }
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ServerTest, ZeroDurationJobsComplete) {
  Engine engine;
  Server cpu(&engine, 1, "cpu");
  int done = 0;
  for (int i = 0; i < 10; ++i) cpu.Submit(0.0, [&] { ++done; });
  engine.Run();
  EXPECT_EQ(done, 10);
}

TEST(TimelineTest, UtilizationIntegratesBusyTime) {
  Engine engine;
  Server cpu(&engine, 2, "cpu");
  // One job occupying 1 of 2 servers for 10s -> 50% utilization.
  cpu.Submit(10.0, [] {});
  engine.Run();
  const BinnedSeries u = UtilizationSeries(cpu, 1.0, 10.0);
  ASSERT_EQ(u.values.size(), 10u);
  for (double v : u.values) EXPECT_NEAR(v, 0.5, 1e-9);
}

TEST(TimelineTest, SeriesBinsAreCappedAndReadsClamped) {
  EXPECT_TRUE(CheckSeriesBins(1.0, 0.5).ok());  // one bin at least
  EXPECT_TRUE(CheckSeriesBins(1.0, 1 << 20).ok());
  EXPECT_TRUE(CheckSeriesBins(1.0, (1 << 20) + 0.5).IsInvalidArgument());
  // Counts no integer type holds, and an infinite one, are rejected too.
  EXPECT_TRUE(CheckSeriesBins(1e-300, 1e10).IsInvalidArgument());
  EXPECT_TRUE(CheckSeriesBins(5e-324, 1.0).IsInvalidArgument());

  // Reads clamp to the grid before converting: far past the end reads
  // the last bin, before the start the first.
  BinnedSeries s;
  s.bin_seconds = 1.0;
  s.values = {1.0, 2.0, 3.0};
  EXPECT_EQ(s.ValueAt(1.5), 2.0);
  EXPECT_EQ(s.ValueAt(1e10), 3.0);
  EXPECT_EQ(s.ValueAt(-1.0), 1.0);
}

TEST(TimelineTest, UtilizationDropsWhenIdle) {
  Engine engine;
  Server cpu(&engine, 1, "cpu");
  cpu.Submit(5.0, [] {});
  engine.Run();
  const BinnedSeries u = UtilizationSeries(cpu, 1.0, 10.0);
  EXPECT_NEAR(u.values[2], 1.0, 1e-9);
  EXPECT_NEAR(u.values[7], 0.0, 1e-9);
}

TEST(TimelineTest, IowaitDetectsDiskBoundIdleCpu) {
  Engine engine;
  Server cpu(&engine, 2, "cpu");
  Server disk(&engine, 1, "disk");
  // Disk busy 0..8s while CPU idle -> iowait 1 over that window.
  disk.Submit(8.0, [] {});
  engine.Run();
  const BinnedSeries w = IowaitSeries(cpu, disk, 1.0, 10.0);
  EXPECT_NEAR(w.values[3], 1.0, 1e-9);
  EXPECT_NEAR(w.values[9], 0.0, 1e-9);
}

TEST(TimelineTest, NoIowaitWhenCpuSaturated) {
  Engine engine;
  Server cpu(&engine, 1, "cpu");
  Server disk(&engine, 1, "disk");
  cpu.Submit(8.0, [] {});
  disk.Submit(8.0, [] {});
  engine.Run();
  const BinnedSeries w = IowaitSeries(cpu, disk, 1.0, 8.0);
  for (double v : w.values) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(StepSeriesTest, ValueAtIsRightContinuousStep) {
  StepSeries s;
  s.Add(1.0, 10);
  s.Add(5.0, 20);
  EXPECT_DOUBLE_EQ(s.ValueAt(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.ValueAt(1.0), 10.0);
  EXPECT_DOUBLE_EQ(s.ValueAt(3.0), 10.0);
  EXPECT_DOUBLE_EQ(s.ValueAt(5.0), 20.0);
  EXPECT_DOUBLE_EQ(s.ValueAt(100.0), 20.0);
  EXPECT_DOUBLE_EQ(s.FinalValue(), 20.0);
}

TEST(StepSeriesTest, SameTimeOverwrites) {
  StepSeries s;
  s.Add(1.0, 10);
  s.Add(1.0, 15);
  EXPECT_DOUBLE_EQ(s.ValueAt(1.0), 15.0);
  EXPECT_EQ(s.times.size(), 1u);
}

}  // namespace
}  // namespace onepass::sim
