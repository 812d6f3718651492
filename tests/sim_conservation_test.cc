// Conservation properties of the discrete-event simulator: resources
// never exceed capacity, deliver exactly the service time submitted, and
// the timeline integrals agree with the busy-time bookkeeping.

#include <gtest/gtest.h>

#include "src/sim/event_queue.h"
#include "src/sim/resources.h"
#include "src/sim/timeline.h"
#include "src/util/random.h"

namespace onepass::sim {
namespace {

TEST(ConservationTest, BusyNeverExceedsCapacity) {
  Engine engine;
  Server cpu(&engine, 3, "cpu");
  Xoshiro256StarStar rng(1);
  // A random burst of arrivals scheduled at random times.
  for (int i = 0; i < 200; ++i) {
    engine.ScheduleAt(rng.NextDouble() * 10.0, [&cpu, &rng] {
      cpu.Submit(0.01 + rng.NextDouble(), [] {});
    });
  }
  engine.Run();
  for (const Server::Sample& s : cpu.samples()) {
    EXPECT_GE(s.busy, 0);
    EXPECT_LE(s.busy, 3);
    EXPECT_GE(s.queued, 0);
  }
}

TEST(ConservationTest, SamplesAreTimeOrdered) {
  Engine engine;
  Server disk(&engine, 1, "disk");
  Xoshiro256StarStar rng(2);
  for (int i = 0; i < 100; ++i) {
    engine.ScheduleAt(rng.NextDouble() * 5.0, [&disk, &rng] {
      disk.Submit(rng.NextDouble() * 0.2, [] {});
    });
  }
  engine.Run();
  double prev = 0;
  for (const Server::Sample& s : disk.samples()) {
    EXPECT_GE(s.time, prev);
    prev = s.time;
  }
}

TEST(ConservationTest, UtilizationIntegralEqualsBusyTime) {
  Engine engine;
  Server cpu(&engine, 2, "cpu");
  Xoshiro256StarStar rng(3);
  double total_service = 0;
  for (int i = 0; i < 60; ++i) {
    const double d = 0.05 + rng.NextDouble() * 0.5;
    total_service += d;
    engine.ScheduleAt(rng.NextDouble() * 8.0,
                      [&cpu, d] { cpu.Submit(d, [] {}); });
  }
  const double end = engine.Run();
  EXPECT_DOUBLE_EQ(cpu.busy_time(), total_service);
  // Integral of utilization * capacity over the horizon = busy time.
  const double bin = 0.01;
  const BinnedSeries u = UtilizationSeries(cpu, bin, end + bin);
  double integral = 0;
  for (double v : u.values) integral += v * bin * 2 /*capacity*/;
  EXPECT_NEAR(integral, total_service, total_service * 0.02 + 0.02);
}

TEST(ConservationTest, WorkConservingNoIdleWithQueue) {
  // If the queue is non-empty, all servers must be busy (FCFS server is
  // work-conserving).
  Engine engine;
  Server cpu(&engine, 2, "cpu");
  for (int i = 0; i < 20; ++i) cpu.Submit(1.0, [] {});
  engine.Run();
  for (const Server::Sample& s : cpu.samples()) {
    if (s.queued > 0) {
      EXPECT_EQ(s.busy, 2) << "idle server with queue";
    }
  }
}

TEST(ConservationTest, MakespanBounds) {
  // n serial seconds of work on k servers finishes within
  // [n/k, n] (here: all jobs submitted at t=0, identical).
  Engine engine;
  Server cpu(&engine, 4, "cpu");
  for (int i = 0; i < 37; ++i) cpu.Submit(1.0, [] {});
  const double end = engine.Run();
  EXPECT_GE(end, 37.0 / 4 - 1e-9);
  EXPECT_LE(end, 37.0 + 1e-9);
  EXPECT_DOUBLE_EQ(end, 10.0);  // ceil(37/4) waves of 1s
}

TEST(RenderTableTest, ProducesAlignedRows) {
  StepSeries a, b;
  a.Add(0.0, 1);
  a.Add(10.0, 2);
  b.Add(5.0, 7);
  const std::string table = RenderSeriesTable({"alpha", "beta"}, {a, b}, 5);
  EXPECT_NE(table.find("alpha"), std::string::npos);
  EXPECT_NE(table.find("beta"), std::string::npos);
  // 1 header + 6 sample rows.
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 7);
}

}  // namespace
}  // namespace onepass::sim
