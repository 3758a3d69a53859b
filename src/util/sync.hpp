// Synchronization policy seam.
//
// The concurrency primitives whose interleavings carry the project's
// correctness claims (util::HandoffQueue and the obs metric registry) are
// templates over a *sync policy*: the set of atomic / mutex / condvar
// types they synchronize through. Production code instantiates them with
// StdSyncPolicy — every alias below is a raw std primitive (or a zero-cost
// annotated wrapper around one), so the seam compiles away entirely. The
// schedule-exhaustive model checker (src/check) instantiates the *same*
// templates with check::ModelSyncPolicy, whose types hand every operation
// to a deterministic scheduler that enumerates interleavings. One
// implementation, verified and shipped.
//
// Policy surface a sync policy must provide:
//   template <typename T> Atomic  — std::atomic-compatible
//   Mutex                          — BasicLockable (+ try_lock)
//   CondVar                        — wait(UniqueLock&[, pred]) / notify_*
//   UniqueLock / LockGuard         — RAII locks over Mutex; UniqueLock has
//                                    lock()/unlock()/mutex()
//   template <typename T> Shared   — holder for plain (non-atomic) state
//                                    accessed through rw()/rd(), so the
//                                    model build can race-check each access
//   static thread_index()          — small dense id of the calling thread
//                                    (shard selection must be deterministic
//                                    under the model)
//
// The primitives never start threads themselves; the threads that share
// them belong to their callers (the daemon's acceptor, connection and
// service threads; the model checker's virtual threads).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>

#include "util/annotations.hpp"

namespace flashqos::util {

/// std::mutex with clang thread-safety capability annotations (libstdc++'s
/// own std::mutex carries none, which would make FLASHQOS_GUARDED_BY an
/// error under -Wthread-safety).
class FLASHQOS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() FLASHQOS_ACQUIRE() { m_.lock(); }
  void unlock() FLASHQOS_RELEASE() { m_.unlock(); }
  [[nodiscard]] bool try_lock() FLASHQOS_TRY_ACQUIRE(true) {
    return m_.try_lock();
  }

 private:
  std::mutex m_;
};

/// Annotated std::lock_guard equivalent.
template <typename M>
class FLASHQOS_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(M& m) FLASHQOS_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~LockGuard() FLASHQOS_RELEASE() { m_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  M& m_;
};

/// Annotated std::unique_lock equivalent (always constructed locked; lock /
/// unlock are what condvar waits use).
template <typename M>
class FLASHQOS_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(M& m) FLASHQOS_ACQUIRE(m) : m_(&m), owns_(true) {
    m_->lock();
  }
  ~UniqueLock() FLASHQOS_RELEASE() {
    if (owns_) m_->unlock();
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() FLASHQOS_ACQUIRE() {
    m_->lock();
    owns_ = true;
  }
  void unlock() FLASHQOS_RELEASE() {
    m_->unlock();
    owns_ = false;
  }
  [[nodiscard]] M* mutex() const noexcept { return m_; }

 private:
  M* m_;
  bool owns_;
};

/// Zero-overhead holder for mutex-guarded plain state. The model policy's
/// counterpart vector-clock-checks every rw()/rd() for data races; this one
/// compiles to the bare member.
template <typename T>
class PlainShared {
 public:
  PlainShared() = default;
  template <typename... Args>
  explicit PlainShared(Args&&... args) : v_(std::forward<Args>(args)...) {}

  [[nodiscard]] T& rw() noexcept { return v_; }
  [[nodiscard]] const T& rd() const noexcept { return v_; }

 private:
  T v_;
};

/// Production sync policy: raw std primitives, zero overhead.
struct StdSyncPolicy {
  template <typename T>
  using Atomic = std::atomic<T>;
  using Mutex = util::Mutex;
  // condition_variable_any, not condition_variable: it waits on any
  // BasicLockable, which the annotated Mutex/UniqueLock are. The extra cost
  // is one internal mutex per condvar, paid only on the blocking path.
  using CondVar = std::condition_variable_any;
  using UniqueLock = util::UniqueLock<Mutex>;
  using LockGuard = util::LockGuard<Mutex>;
  template <typename T>
  using Shared = PlainShared<T>;

  /// Dense-ish id of the calling thread, assigned once on first use.
  /// Shard-slot selection (obs counters) derives from this; the model
  /// policy returns the virtual thread id instead so shard assignment is
  /// schedule-deterministic.
  [[nodiscard]] static std::size_t thread_index() noexcept {
    thread_local const std::size_t idx = [] {
      static std::atomic<std::size_t> next{0};
      return next.fetch_add(1, std::memory_order_relaxed);
    }();
    return idx;
  }

  static constexpr bool kModeled = false;
};

}  // namespace flashqos::util
