// Bounded blocking handoff queue between threads.
//
// PipelineService's live ingress carries submit batches from any number of
// producer threads to the one service thread over one of these queues, and
// net::Acceptor hands accepted file descriptors to its consumers the same
// way. The bound provides backpressure — producers cannot run arbitrarily
// far ahead of the consumer, so memory stays proportional to the capacity,
// not to the input.
//
// Semantics:
//  * push() blocks while the queue is full; returns false iff the queue
//    was closed (the item is dropped — consumers are gone).
//  * pop() blocks while the queue is empty; returns nullopt iff the queue
//    is closed AND drained (a closed queue still yields its backlog).
//  * close() wakes every waiter; it is idempotent and safe from any side.
//
// Any number of producers and consumers may share a queue; ordering across
// producers is arrival order under the internal lock (consumers that need
// a canonical order must re-sequence by an id carried in T).
//
// The queue is templated on a sync policy (util/sync.hpp). Production code
// uses the default StdSyncPolicy — raw std::mutex/condvar, zero overhead.
// The schedule-exhaustive model checker (src/check) instantiates it with
// ModelSyncPolicy and enumerates every interleaving of push/pop/close,
// which is how the blocking protocol below is *proven* free of lost
// wakeups and deadlocks rather than spot-checked by whichever schedules
// TSan happened to see.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "util/annotations.hpp"
#include "util/expect.hpp"
#include "util/sync.hpp"

namespace flashqos {

template <typename T, typename Sync = util::StdSyncPolicy>
class HandoffQueue {
 public:
  explicit HandoffQueue(std::size_t capacity) : capacity_(capacity) {
    FLASHQOS_EXPECT(capacity > 0, "handoff queue capacity must be positive");
  }

  HandoffQueue(const HandoffQueue&) = delete;
  HandoffQueue& operator=(const HandoffQueue&) = delete;

  /// Block until there is room (or the queue closes). True iff enqueued.
  bool push(T item) {
    typename Sync::UniqueLock lock(mutex_);
    while (!closed_.rd() && items_.rd().size() >= capacity_) {
      not_full_.wait(lock);
    }
    if (closed_.rd()) return false;
    items_.rw().push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Block until an item is available (or the queue closes and drains).
  std::optional<T> pop() {
    typename Sync::UniqueLock lock(mutex_);
    while (!closed_.rd() && items_.rd().empty()) {
      not_empty_.wait(lock);
    }
    if (items_.rd().empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.rw().front());
    items_.rw().pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Refuse further pushes and wake every blocked producer/consumer.
  /// Already-queued items remain poppable.
  void close() {
    {
      const typename Sync::LockGuard lock(mutex_);
      closed_.rw() = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    const typename Sync::LockGuard lock(mutex_);
    return closed_.rd();
  }

  [[nodiscard]] std::size_t size() const {
    const typename Sync::LockGuard lock(mutex_);
    return items_.rd().size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable typename Sync::Mutex mutex_;
  typename Sync::CondVar not_full_;
  typename Sync::CondVar not_empty_;
  typename Sync::template Shared<std::deque<T>> items_
      FLASHQOS_GUARDED_BY(mutex_);
  typename Sync::template Shared<bool> closed_ FLASHQOS_GUARDED_BY(mutex_){
      false};
};

}  // namespace flashqos
