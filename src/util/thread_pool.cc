#include "src/util/thread_pool.h"

#include <utility>

namespace onepass {

ThreadPool::ThreadPool(int num_threads) {
  const size_t n = num_threads < 1 ? 1 : static_cast<size_t>(num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i]() { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  const size_t w = next_queue_.fetch_add(1, std::memory_order_relaxed) %
                   workers_.size();
  {
    std::lock_guard<std::mutex> lock(workers_[w]->mu);
    workers_[w]->queue.push_back(std::move(task));
  }
  // pending_ is read under wake_mu_ by sleeping workers; bumping it before
  // the notify (also under wake_mu_) closes the lost-wakeup window.
  pending_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
  }
  wake_cv_.notify_one();
}

bool ThreadPool::RunOneTask(size_t self) {
  std::function<void()> task;
  {
    Worker& own = *workers_[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.queue.empty()) {
      task = std::move(own.queue.front());
      own.queue.pop_front();
    }
  }
  if (!task) {
    // Steal from the back of a sibling's queue, scanning in a fixed order
    // from our right-hand neighbour.
    for (size_t k = 1; k < workers_.size() && !task; ++k) {
      Worker& victim = *workers_[(self + k) % workers_.size()];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.queue.empty()) {
        task = std::move(victim.queue.back());
        victim.queue.pop_back();
      }
    }
  }
  if (!task) return false;
  pending_.fetch_sub(1, std::memory_order_relaxed);
  task();
  return true;
}

void ThreadPool::WorkerLoop(size_t self) {
  for (;;) {
    if (RunOneTask(self)) continue;
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait(lock, [this]() {
      return stop_ || pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_ && pending_.load(std::memory_order_acquire) == 0) return;
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body,
                             const std::function<void(size_t)>& drain) {
  if (n == 0) return;
  if (workers_.size() == 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) {
      body(i);
      if (drain) drain(i);
    }
    return;
  }
  // The caller waits for the indices in order; a worker wakes it only when
  // the index it is waiting on finishes.
  struct Join {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<bool> finished;  // guarded by mu
    size_t awaited = 0;          // guarded by mu
  };
  auto join = std::make_shared<Join>();
  join->finished.assign(n, false);
  for (size_t i = 0; i < n; ++i) {
    Submit([join, &body, i]() {
      body(i);
      std::lock_guard<std::mutex> lock(join->mu);
      join->finished[i] = true;
      if (i == join->awaited) join->cv.notify_one();
    });
  }
  for (size_t i = 0; i < n; ++i) {
    {
      std::unique_lock<std::mutex> lock(join->mu);
      join->awaited = i;
      join->cv.wait(lock, [&join, i]() { return join->finished[i]; });
    }
    if (drain) drain(i);
  }
}

int ThreadPool::ResolveThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

Status RunDataPlaneTasks(ThreadPool* pool, size_t n,
                         const std::function<Status(size_t)>& body,
                         const std::function<void(size_t)>& drain) {
  if (pool == nullptr) {
    for (size_t t = 0; t < n; ++t) {
      RETURN_IF_ERROR(body(t));
      if (drain) drain(t);
    }
    return Status::OK();
  }
  std::vector<Status> statuses(n);
  Status first_failure;
  pool->ParallelFor(
      n, [&](size_t t) { statuses[t] = body(t); },
      [&](size_t t) {
        if (!first_failure.ok()) return;
        first_failure = statuses[t];
        if (first_failure.ok() && drain) drain(t);
      });
  return first_failure;
}

}  // namespace onepass
