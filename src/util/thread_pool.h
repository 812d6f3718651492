// A small work-stealing thread pool for the data plane.
//
// Each worker owns a deque: submitted tasks are distributed round-robin,
// a worker pops its own queue from the front and, when empty, steals from
// the back of its siblings' queues (classic work stealing — long and short
// tasks mix freely without a single contended queue).
//
// The pool executes *data-plane* tasks only (map tasks, reduce-engine
// runs). Determinism is the callers' contract, not the pool's: every task
// must write exclusively to state keyed by its own task id, and callers
// must merge per-task results in task-id order — after ParallelFor
// returns, or in its in-order drain as each task finishes. The simulated
// time plane never runs here — it stays single-threaded and authoritative
// (DESIGN.md §5.3).

#ifndef ONEPASS_UTIL_THREAD_POOL_H_
#define ONEPASS_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/status.h"

namespace onepass {

class ThreadPool {
 public:
  // Starts `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  // Runs every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Enqueues one task. Thread-safe.
  void Submit(std::function<void()> task);

  // Runs body(i) for every i in [0, n), concurrently and in no particular
  // order, and blocks until all n iterations have finished. `body` must be
  // safe to invoke concurrently for distinct i. `drain` (may be empty)
  // runs on the calling thread for i = 0, 1, ..., n-1 in order, each once
  // body(i) has returned, while later bodies may still run: the caller
  // folds finished work in task order instead of sleeping until the join.
  // drain(i) may touch what body(i) wrote, and nothing a later body does.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body,
                   const std::function<void(size_t)>& drain = {});

  // Resolves a thread-count knob: <= 0 means "one per hardware thread".
  static int ResolveThreads(int requested);

 private:
  struct Worker {
    std::mutex mu;
    std::deque<std::function<void()>> queue;
  };

  // Pops one task (own queue first, then steals) and runs it. False when
  // every queue is empty.
  bool RunOneTask(size_t self);
  void WorkerLoop(size_t self);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<size_t> pending_{0};
  std::atomic<size_t> next_queue_{0};
  bool stop_ = false;  // guarded by wake_mu_
};

// Runs body(t) for every task t in [0, n) — on `pool` when given, else
// sequentially on the calling thread — and returns the lowest-index non-OK
// status. Each body writes only to state slotted by its own index, so the
// thread count and execution order never show in the results. `drain`
// (may be empty) runs on the calling thread for t = 0, 1, ... in order,
// once body(t) returned, and only while body(t) and every earlier body
// returned OK. The sequential path stops at the first failure; the
// parallel path runs every body but reports the same status and drains
// the same tasks.
Status RunDataPlaneTasks(ThreadPool* pool, size_t n,
                         const std::function<Status(size_t)>& body,
                         const std::function<void(size_t)>& drain = {});

}  // namespace onepass

#endif  // ONEPASS_UTIL_THREAD_POOL_H_
