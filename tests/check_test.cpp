// Tests for the schedule-exhaustive model checker (src/check).
//
// The clean builtin models passing proves little by itself — a checker
// that detects nothing also reports "ok" on everything. So each detector
// is proven live by a seeded mutation: a deliberately buggy mirror of a
// modeled primitive's protocol whose injected race / deadlock / lost
// wakeup / nondeterminism the explorer MUST flag on some interleaving.
#include <gtest/gtest.h>

#include <string>

#include "check/model_sync.hpp"
#include "check/models.hpp"
#include "check/sched.hpp"

namespace flashqos::check {
namespace {

using Policy = ModelSyncPolicy;

// ---------------------------------------------------------------------------
// Clean models: the real primitives, explored exhaustively.

TEST(CheckModels, BuiltinModelsPassExhaustively) {
  for (const auto& run : run_builtin_models()) {
    EXPECT_TRUE(run.result.ok) << run.name << ": " << run.result.failure;
    EXPECT_TRUE(run.result.exhausted) << run.name << " hit an explorer cap";
    EXPECT_GE(run.result.executions, 2u)
        << run.name << " explored only one schedule; model too small";
  }
}

TEST(CheckModels, MutexProtectedCounterIsClean) {
  const auto r = explore([] {
    Policy::Mutex m;
    Policy::Shared<int> counter{0};
    Policy::Thread t([&] {
      const Policy::LockGuard lock(m);
      counter.rw() += 1;
    });
    {
      const Policy::LockGuard lock(m);
      counter.rw() += 2;
    }
    t.join();
    return std::to_string(counter.rd());
  });
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_TRUE(r.exhausted);
}

TEST(CheckModels, ReleaseAcquirePublicationIsClean) {
  const auto r = explore([] {
    Policy::Atomic<int> flag{0};
    Policy::Shared<int> data{0};
    Policy::Thread t([&] {
      data.rw() = 42;
      flag.store(1, std::memory_order_release);
    });
    int seen = -1;
    if (flag.load(std::memory_order_acquire) == 1) seen = data.rd();
    t.join();
    // `seen` is schedule-dependent; the digest must not include it.
    (void)seen;
    return std::string("done");
  });
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_TRUE(r.exhausted);
}

// ---------------------------------------------------------------------------
// Seeded mutations: one per detector, one per modeled primitive.

/// Mutation: unguarded writes to plain shared state (a HandoffQueue whose
/// items_ bookkeeping lost its mutex would look exactly like this).
TEST(CheckMutations, DetectsUnguardedSharedWrite) {
  const auto r = explore([] {
    Policy::Shared<int> counter{0};
    Policy::Thread t([&] { counter.rw() += 1; });
    counter.rw() += 2;  // raced against the thread body
    t.join();
    return std::to_string(counter.rd());
  });
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("data race"), std::string::npos) << r.failure;
}

/// Mutation: publish via a relaxed store, consume via acquire. The relaxed
/// store carries no happens-before edge, so the data read races. This is
/// the regression lock on BasicCounter's documented contract: relaxed
/// fetch_adds are fold-safe for the counter VALUE but must never be used
/// to synchronize other state.
TEST(CheckMutations, DetectsRelaxedPublicationRace) {
  const auto r = explore([] {
    Policy::Atomic<int> flag{0};
    Policy::Shared<int> data{0};
    Policy::Thread t([&] {
      data.rw() = 42;
      flag.store(1, std::memory_order_relaxed);  // bug: publishes nothing
    });
    if (flag.load(std::memory_order_acquire) == 1) (void)data.rd();
    t.join();
    return std::string("done");
  });
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("data race"), std::string::npos) << r.failure;
}

/// Mutation: AB–BA lock ordering (two HandoffQueues locked inside-out by
/// two threads would deadlock the same way).
TEST(CheckMutations, DetectsLockOrderDeadlock) {
  const auto r = explore([] {
    Policy::Mutex a;
    Policy::Mutex b;
    Policy::Thread t([&] {
      const Policy::LockGuard la(a);
      const Policy::LockGuard lb(b);
    });
    {
      const Policy::LockGuard lb(b);
      const Policy::LockGuard la(a);
    }
    t.join();
    return std::string("done");
  });
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("deadlock"), std::string::npos) << r.failure;
}

/// Mutation: a waiter whose producer forgot to notify — the lost-wakeup
/// shape. (HandoffQueue::close() without its notify_all calls, or a push
/// without not_empty_.notify_one, reduce to this.)
TEST(CheckMutations, DetectsLostWakeup) {
  const auto r = explore([] {
    Policy::Mutex m;
    Policy::CondVar cv;
    Policy::Shared<bool> ready{false};
    Policy::Thread t([&] {
      const Policy::LockGuard lock(m);
      ready.rw() = true;
      // bug: no cv.notify_one() — the waiter can sleep forever
    });
    {
      Policy::UniqueLock lock(m);
      while (!ready.rd()) cv.wait(lock);
    }
    t.join();
    return std::string("done");
  });
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("deadlock"), std::string::npos) << r.failure;
  EXPECT_NE(r.failure.find("lost wakeup"), std::string::npos) << r.failure;
}

/// Mutation: a model whose digest depends on the schedule (the snapshot
/// non-determinism class: folding metric state that a racing thread is
/// still mutating).
TEST(CheckMutations, DetectsScheduleDependentResult) {
  const auto r = explore([] {
    Policy::Mutex m;
    Policy::Shared<int> order{0};
    Policy::Thread t([&] {
      const Policy::LockGuard lock(m);
      if (order.rd() == 0) order.rw() = 1;
    });
    {
      const Policy::LockGuard lock(m);
      if (order.rd() == 0) order.rw() = 2;
    }
    t.join();
    return std::to_string(order.rd());  // 1 or 2, by schedule
  });
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("schedule-dependent result"), std::string::npos)
      << r.failure;
}

/// Mutation: model assertion failure surfaces through SchedResult with the
/// schedule trace attached (this is the path every model_expect in the
/// builtin models relies on).
TEST(CheckMutations, ModelExpectFailureCarriesTrace) {
  const auto r = explore([] {
    Policy::Shared<int> v{0};
    Policy::Thread t([&] {});
    t.join();
    model_expect(v.rd() == 1, "injected assertion failure");
    return std::string("unreachable");
  });
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("injected assertion failure"), std::string::npos)
      << r.failure;
  EXPECT_NE(r.failure.find("schedule trace"), std::string::npos) << r.failure;
}

/// The explorer honors its execution cap and reports non-exhaustion
/// honestly instead of claiming a clean exhaustive pass.
TEST(CheckMutations, ExecutionCapReportsNonExhausted) {
  SchedOptions opts;
  opts.max_executions = 2;
  const auto r = explore(
      [] {
        Policy::Mutex m;
        Policy::Thread t([&] { const Policy::LockGuard lock(m); });
        { const Policy::LockGuard lock(m); }
        t.join();
        return std::string("done");
      },
      opts);
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_FALSE(r.exhausted);
  EXPECT_EQ(r.executions, 2u);
}

}  // namespace
}  // namespace flashqos::check
