// Minimal fixed-size thread pool for embarrassingly parallel work.
//
// Used by the Monte-Carlo P_k sampler, whose per-k shards are independent.
// Tasks are closures; parallel_for covers the common indexed pattern and
// reports failures to the submitter. Results must not depend on execution
// order — callers seed any randomness per shard (see shard_seed in
// util/rng.hpp and core::sample_optimal_probabilities).
//
// The pool is a template over a sync policy (util/sync.hpp). Production
// code uses the `ThreadPool` alias — StdSyncPolicy, raw std primitives.
// The model checker (src/check) instantiates BasicThreadPool with
// ModelSyncPolicy and exhaustively explores the submit/wait/drain
// protocol's interleavings: the wait() wakeup, the destructor's
// stop-and-drain handshake, and the queue/in-flight accounting are all
// schedule-verified, not just exercised.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "util/annotations.hpp"
#include "util/expect.hpp"
#include "util/sync.hpp"

namespace flashqos {

template <typename Sync = util::StdSyncPolicy>
class BasicThreadPool {
 public:
  /// `threads` == 0 picks the hardware concurrency (at least 1).
  explicit BasicThreadPool(std::size_t threads = 0) {
    if (threads == 0) {
      threads = std::max<std::size_t>(1, Sync::Thread::hardware_concurrency());
    }
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back(
          typename Sync::Thread([this] { worker_loop(); }));
    }
  }

  ~BasicThreadPool() {
    {
      const typename Sync::LockGuard lock(mutex_);
      stopping_.rw() = true;
    }
    task_ready_.notify_all();
    for (auto& w : workers_) w.join();
  }

  BasicThreadPool(const BasicThreadPool&) = delete;
  BasicThreadPool& operator=(const BasicThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; runs as soon as a worker frees up. The task must not
  /// throw — an escaping exception terminates the process (no submitter to
  /// report it to). Batch submitters that need failures reported use
  /// parallel_for.
  void submit(std::function<void()> task) {
    FLASHQOS_EXPECT(task != nullptr, "cannot submit an empty task");
    {
      const typename Sync::LockGuard lock(mutex_);
      FLASHQOS_EXPECT(!stopping_.rd(), "pool is shutting down");
      tasks_.rw().push(std::move(task));
      ++in_flight_.rw();
    }
    task_ready_.notify_one();
  }

  /// Block until every submitted task has finished.
  void wait() {
    typename Sync::UniqueLock lock(mutex_);
    while (in_flight_.rd() != 0) all_done_.wait(lock);
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        typename Sync::UniqueLock lock(mutex_);
        while (!stopping_.rd() && tasks_.rd().empty()) task_ready_.wait(lock);
        if (tasks_.rd().empty()) return;  // stopping and drained
        task = std::move(tasks_.rw().front());
        tasks_.rw().pop();
      }
      task();
      {
        const typename Sync::LockGuard lock(mutex_);
        --in_flight_.rw();
        if (in_flight_.rd() == 0) all_done_.notify_all();
      }
    }
  }

  std::vector<typename Sync::Thread> workers_;
  mutable typename Sync::Mutex mutex_;
  typename Sync::CondVar task_ready_;
  typename Sync::CondVar all_done_;
  typename Sync::template Shared<std::queue<std::function<void()>>> tasks_
      FLASHQOS_GUARDED_BY(mutex_);
  typename Sync::template Shared<std::size_t> in_flight_
      FLASHQOS_GUARDED_BY(mutex_){std::size_t{0}};
  typename Sync::template Shared<bool> stopping_ FLASHQOS_GUARDED_BY(mutex_){
      false};
};

/// Production pool: the sync-policy seam compiles to raw std primitives.
using ThreadPool = BasicThreadPool<util::StdSyncPolicy>;

/// Run fn(i) for i in [0, n) across the pool and wait for completion.
/// If any invocation throws, the first exception (in index order) is
/// rethrown here after every index has finished or been skipped.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace flashqos
