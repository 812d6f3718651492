#include "src/util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace onepass {
namespace {

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(),
                   [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(3);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(16);
  pool.ParallelFor(ran.size(),
                   [&](size_t i) { ran[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, WorkIsStolenAcrossQueues) {
  // Submit imbalanced tasks: one long task pins a worker while the rest
  // must be drained (stolen) by the others for the join to finish fast.
  ThreadPool pool(4);
  std::atomic<int> done{0};
  pool.ParallelFor(64, [&](size_t i) {
    if (i == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPoolTest, SequentialParallelForsReusePool) {
  ThreadPool pool(2);
  uint64_t total = 0;
  for (int round = 0; round < 20; ++round) {
    std::vector<uint64_t> parts(50, 0);
    pool.ParallelFor(parts.size(), [&](size_t i) { parts[i] = i; });
    total += std::accumulate(parts.begin(), parts.end(), uint64_t{0});
  }
  EXPECT_EQ(total, 20u * (49u * 50u / 2));
}

TEST(ThreadPoolTest, SubmitDrainsBeforeDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran]() { ran.fetch_add(1); });
    }
  }  // destructor must run all queued tasks before joining
  EXPECT_EQ(ran.load(), 100);
}

// RunDataPlaneTasks at one thread (no pool: PrepareJob's sequential path)
// and at four. Tasks 3 and 7 fail, 3 last in time: the result is still
// task 3's status, and the drain sees exactly 0, 1, 2, in order, on the
// calling thread. The sequential path runs no body past the failure.
TEST(ThreadPoolTest, RunDataPlaneTasksReportsLowestFailureAndDrainsBeforeIt) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::optional<ThreadPool> pool;
    if (threads > 1) pool.emplace(threads);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> bodies{0};
    std::vector<size_t> drained;
    const Status s = RunDataPlaneTasks(
        pool ? &*pool : nullptr, 10,
        [&](size_t t) {
          bodies.fetch_add(1);
          if (t == 3) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
          if (t == 3 || t == 7) {
            return Status::Internal("task " + std::to_string(t));
          }
          return Status::OK();
        },
        [&](size_t t) {
          EXPECT_EQ(std::this_thread::get_id(), caller) << "drain " << t;
          drained.push_back(t);
        });
    EXPECT_EQ(s.ToString(), Status::Internal("task 3").ToString());
    EXPECT_EQ(drained, (std::vector<size_t>{0, 1, 2}));
    EXPECT_EQ(bodies.load(), threads == 1 ? 4 : 10);
  }
}

// Index 0 blocks on a latch that index n-1 releases, so every other body
// finishes first; the drain still runs 0..n-1 in order, each after its
// body returned. Four threads only: one thread would wait forever on 0.
TEST(ThreadPoolTest, DrainRunsInOrderBehindABlockedFirstTask) {
  ThreadPool pool(4);
  constexpr size_t kTasks = 16;
  std::latch release(1);
  std::vector<std::atomic<bool>> returned(kTasks);
  std::vector<size_t> drained;
  const Status s = RunDataPlaneTasks(
      &pool, kTasks,
      [&](size_t t) {
        if (t == 0) release.wait();
        if (t == kTasks - 1) release.count_down();
        returned[t].store(true);
        return Status::OK();
      },
      [&](size_t t) {
        EXPECT_TRUE(returned[t].load()) << "drain " << t << " before its body";
        drained.push_back(t);
      });
  EXPECT_TRUE(s.ok()) << s.ToString();
  std::vector<size_t> want(kTasks);
  std::iota(want.begin(), want.end(), size_t{0});
  EXPECT_EQ(drained, want);
}

TEST(ThreadPoolTest, RunDataPlaneTasksZeroAndOne) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::optional<ThreadPool> pool;
    if (threads > 1) pool.emplace(threads);
    ThreadPool* p = pool ? &*pool : nullptr;
    int bodies = 0;
    std::vector<size_t> drained;
    auto drain = [&](size_t t) { drained.push_back(t); };
    auto ok = [&](size_t) {
      ++bodies;
      return Status::OK();
    };
    EXPECT_TRUE(RunDataPlaneTasks(p, 0, ok, drain).ok());
    EXPECT_EQ(bodies, 0);
    EXPECT_TRUE(drained.empty());
    EXPECT_TRUE(RunDataPlaneTasks(p, 1, ok, drain).ok());
    EXPECT_EQ(bodies, 1);
    EXPECT_EQ(drained, (std::vector<size_t>{0}));
    EXPECT_TRUE(RunDataPlaneTasks(p, 1, ok).ok());
    EXPECT_EQ(bodies, 2);
    const Status failed = RunDataPlaneTasks(
        p, 1, [](size_t) { return Status::Internal("only task"); }, drain);
    EXPECT_EQ(failed.ToString(), Status::Internal("only task").ToString());
    EXPECT_EQ(drained, (std::vector<size_t>{0}));
  }
}

TEST(ThreadPoolTest, ResolveThreads) {
  EXPECT_EQ(ThreadPool::ResolveThreads(1), 1);
  EXPECT_EQ(ThreadPool::ResolveThreads(7), 7);
  EXPECT_GE(ThreadPool::ResolveThreads(0), 1);
  EXPECT_GE(ThreadPool::ResolveThreads(-3), 1);
}

}  // namespace
}  // namespace onepass
