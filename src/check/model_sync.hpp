// ModelSyncPolicy: the model checker's side of the util::StdSyncPolicy seam.
//
// Instantiating a sync-policy-templated primitive (util::HandoffQueue,
// obs::BasicMetricRegistry) with ModelSyncPolicy swaps every std::atomic /
// std::mutex / std::condition_variable for a model type that hands each
// operation to the active check::Sched as a scheduling transition. The
// production instantiation never sees any of this — StdSyncPolicy compiles
// to the raw std primitives. ModelThread (ModelSyncPolicy::Thread) is the
// models' own std::thread stand-in: the primitives start no threads, so
// only the scenarios that drive them spawn one.
//
// Faithfulness notes:
//  * Atomics are sequentially consistent in *value* (the explorer
//    serializes execution) but carry C++-faithful happens-before for race
//    detection: release stores publish the writer's clock, acquire loads
//    join it, relaxed operations publish/join nothing, and RMWs preserve
//    the release sequence they extend.
//  * Condvar wait models the atomic release-and-enqueue; notify_one picks
//    the woken waiter as an explored decision; a notify with no waiter is
//    lost, exactly like the real thing.
//  * Spurious wakeups are not generated (in-tree waits are all
//    predicated, making them unobservable).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <mutex>
#include <utility>

#include "check/sched.hpp"
#include "util/expect.hpp"

namespace flashqos::check {

[[nodiscard]] constexpr bool mo_acquires(std::memory_order mo) noexcept {
  return mo == std::memory_order_acquire || mo == std::memory_order_consume ||
         mo == std::memory_order_acq_rel || mo == std::memory_order_seq_cst;
}

[[nodiscard]] constexpr bool mo_releases(std::memory_order mo) noexcept {
  return mo == std::memory_order_release || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst;
}

/// std::atomic<T> stand-in; every operation is a schedule point.
template <typename T>
class ModelAtomic {
 public:
  ModelAtomic() noexcept = default;
  explicit constexpr ModelAtomic(T v) noexcept : v_(v) {}
  ModelAtomic(const ModelAtomic&) = delete;
  ModelAtomic& operator=(const ModelAtomic&) = delete;

  T load(std::memory_order mo = std::memory_order_seq_cst) const {
    Sched& s = sched();
    s.transition({OpKind::kAtomicLoad, &st_, nullptr, kNoThread});
    if (mo_acquires(mo)) s.hb_acquire(st_.clock);
    return v_;
  }

  void store(T v, std::memory_order mo = std::memory_order_seq_cst) {
    Sched& s = sched();
    s.transition({OpKind::kAtomicStore, &st_, nullptr, kNoThread});
    if (mo_releases(mo)) {
      s.hb_release(st_.clock);
    } else {
      // A plain relaxed store starts a fresh release sequence with no
      // published clock: later acquire loads get no happens-before from it.
      st_.clock.clear();
    }
    v_ = v;
  }

  T exchange(T v, std::memory_order mo = std::memory_order_seq_cst) {
    const T old = rmw(mo);
    v_ = v;
    return old;
  }

  T fetch_add(T d, std::memory_order mo = std::memory_order_seq_cst) {
    const T old = rmw(mo);
    v_ = static_cast<T>(v_ + d);
    return old;
  }

  T fetch_sub(T d, std::memory_order mo = std::memory_order_seq_cst) {
    const T old = rmw(mo);
    v_ = static_cast<T>(v_ - d);
    return old;
  }

  bool compare_exchange_strong(T& expected, T desired,
                               std::memory_order success =
                                   std::memory_order_seq_cst,
                               std::memory_order failure =
                                   std::memory_order_seq_cst) {
    Sched& s = sched();
    s.transition({OpKind::kAtomicRmw, &st_, nullptr, kNoThread});
    if (v_ == expected) {
      if (mo_acquires(success)) s.hb_acquire(st_.clock);
      if (mo_releases(success)) {
        s.hb_release_join(st_.clock);  // RMW extends the release sequence
      }
      v_ = desired;
      return true;
    }
    if (mo_acquires(failure)) s.hb_acquire(st_.clock);
    expected = v_;
    return false;
  }

  bool compare_exchange_weak(T& expected, T desired,
                             std::memory_order success =
                                 std::memory_order_seq_cst,
                             std::memory_order failure =
                                 std::memory_order_seq_cst) {
    // No spurious failure under the model (it would only re-run the loop).
    return compare_exchange_strong(expected, desired, success, failure);
  }

 private:
  [[nodiscard]] static Sched& sched() {
    Sched* s = Sched::current();
    FLASHQOS_EXPECT(s != nullptr,
                    "ModelAtomic used outside an active exploration");
    return *s;
  }

  /// Common RMW prologue: schedule point + clock edges. Relaxed RMWs keep
  /// the sequence head's clock (release-sequence rule) without joining.
  T rmw(std::memory_order mo) {
    Sched& s = sched();
    s.transition({OpKind::kAtomicRmw, &st_, nullptr, kNoThread});
    if (mo_acquires(mo)) s.hb_acquire(st_.clock);
    if (mo_releases(mo)) s.hb_release_join(st_.clock);
    return v_;
  }

  T v_{};
  mutable AtomicState st_;
};

/// std::mutex stand-in.
class ModelMutex {
 public:
  ModelMutex() = default;
  ModelMutex(const ModelMutex&) = delete;
  ModelMutex& operator=(const ModelMutex&) = delete;

  void lock() {
    Sched& s = *Sched::current();
    s.transition({OpKind::kMutexLock, &st_, &st_, kNoThread});
    // Granted only when free (or abort pass-through re-parked until free).
    st_.locked = true;
    st_.owner = s.current_tid();
    s.hb_acquire(st_.clock);
  }

  void unlock() {
    Sched& s = *Sched::current();
    s.transition({OpKind::kMutexUnlock, &st_, nullptr, kNoThread});
    if (!st_.locked) {
      // Tolerated only while unwinding a failed execution (a lock
      // bypassed by the condvar-wait fast path); a real double-unlock is
      // a model bug.
      model_expect(s.aborting(), "unlock of an unlocked ModelMutex");
      return;
    }
    release_effects(s);
  }

  /// The "atomically release while enqueueing as a waiter" half of a
  /// condvar wait: same effects as unlock, but no scheduling point of its
  /// own — the caller's kCvRelease transition covers it.
  void release_for_wait() {
    Sched& s = *Sched::current();
    model_expect(st_.locked, "condvar wait on a mutex not held");
    release_effects(s);
  }

  [[nodiscard]] MutexState& state() noexcept { return st_; }

 private:
  void release_effects(Sched& s) {
    s.hb_release(st_.clock);
    st_.locked = false;
    st_.owner = kNoThread;
  }

  MutexState st_;
};

/// std::condition_variable(-any) stand-in. Works with any lock exposing
/// mutex() -> ModelMutex* (std::unique_lock<ModelMutex> does).
class ModelCondVar {
 public:
  ModelCondVar() = default;
  ModelCondVar(const ModelCondVar&) = delete;
  ModelCondVar& operator=(const ModelCondVar&) = delete;

  template <typename Lock>
  void wait(Lock& lock) {
    Sched& s = *Sched::current();
    ModelMutex* m = lock.mutex();
    s.transition({OpKind::kCvRelease, &st_, nullptr, kNoThread});
    m->release_for_wait();
    s.enqueue_cv_waiter(st_);
    s.block_on_cv();
    // `lock` still believes it owns the mutex; reacquire through the raw
    // mutex so the flag is truthful again on return.
    m->lock();
  }

  template <typename Lock, typename Pred>
  void wait(Lock& lock, Pred pred) {
    while (!pred()) wait(lock);
  }

  void notify_one() {
    Sched& s = *Sched::current();
    s.transition({OpKind::kCvNotifyOne, &st_, nullptr, kNoThread});
    s.wake_one_waiter(st_);
  }

  void notify_all() {
    Sched& s = *Sched::current();
    s.transition({OpKind::kCvNotifyAll, &st_, nullptr, kNoThread});
    s.wake_all_waiters(st_);
  }

 private:
  CvState st_;
};

/// std::thread stand-in: a virtual thread under the active exploration.
class ModelThread {
 public:
  ModelThread() noexcept = default;

  template <typename Fn>
  explicit ModelThread(Fn&& fn)
      : sched_(Sched::current()), tid_(kNoThread) {
    FLASHQOS_EXPECT(sched_ != nullptr,
                    "ModelThread spawned outside an active exploration");
    tid_ = sched_->spawn(std::function<void()>(std::forward<Fn>(fn)));
  }

  ModelThread(ModelThread&& o) noexcept
      : sched_(std::exchange(o.sched_, nullptr)),
        tid_(std::exchange(o.tid_, kNoThread)) {}
  ModelThread& operator=(ModelThread&& o) noexcept {
    model_expect(!joinable(), "assigning over a joinable ModelThread");
    sched_ = std::exchange(o.sched_, nullptr);
    tid_ = std::exchange(o.tid_, kNoThread);
    return *this;
  }
  ModelThread(const ModelThread&) = delete;
  ModelThread& operator=(const ModelThread&) = delete;

  ~ModelThread() {
    // std::thread terminates here; the model fails the exploration instead
    // (and during abort unwinding, quietly waits the virtual thread out so
    // the execution still drains cleanly).
    if (joinable()) join();
  }

  [[nodiscard]] bool joinable() const noexcept { return tid_ != kNoThread; }

  void join() {
    model_expect(joinable(), "join on a non-joinable ModelThread");
    sched_->transition({OpKind::kThreadJoin, nullptr, nullptr, tid_});
    sched_->hb_acquire(sched_->clock_of(tid_));
    tid_ = kNoThread;
  }

 private:
  Sched* sched_ = nullptr;
  ThreadId tid_ = kNoThread;
};

/// Race-checked holder for plain (non-atomic) state. Every rw()/rd() is
/// vector-clock-checked against all prior accesses; accesses are NOT
/// scheduling points (only synchronization operations are), which keeps
/// the state space at sync-op granularity, like loom's UnsafeCell.
template <typename T>
class ModelShared {
 public:
  ModelShared() = default;
  template <typename... Args>
  explicit ModelShared(Args&&... args) : v_(std::forward<Args>(args)...) {}

  [[nodiscard]] T& rw() {
    Sched::current()->on_shared_write(st_);
    return v_;
  }
  [[nodiscard]] const T& rd() const {
    Sched::current()->on_shared_read(st_);
    return v_;
  }

 private:
  T v_;
  mutable SharedState st_;
};

/// The model checker's sync policy (see util::StdSyncPolicy for the seam
/// contract), plus Thread for the scenarios that drive it.
struct ModelSyncPolicy {
  template <typename T>
  using Atomic = ModelAtomic<T>;
  using Mutex = ModelMutex;
  using CondVar = ModelCondVar;
  using Thread = ModelThread;
  using UniqueLock = std::unique_lock<ModelMutex>;
  using LockGuard = std::lock_guard<ModelMutex>;
  template <typename T>
  using Shared = ModelShared<T>;

  [[nodiscard]] static std::size_t thread_index() noexcept {
    // Virtual thread id: shard assignment becomes schedule-deterministic.
    return Sched::current()->current_tid();
  }

  static constexpr bool kModeled = true;
};

}  // namespace flashqos::check
