// Concurrency stress for the thread handoff seams, written to give
// ThreadSanitizer something to chew on: many producers and consumers on a
// tiny HandoffQueue, and the tenant ingress under contention. The
// assertions are deliberately simple — the point of these tests is the
// interleavings, and TSan turns any data race or lock-order bug they
// expose into a hard failure.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/tenant_scheduler.hpp"
#include "util/handoff_queue.hpp"

using namespace flashqos;

namespace {

// Many producers, many consumers, capacity far below the element count so
// both sides block constantly. Every pushed value must be popped exactly
// once and the element sum conserved.
TEST(HandoffQueueStress, ManyProducersManyConsumersTinyCapacity) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 3;
  constexpr std::uint64_t kPerProducer = 2000;
  HandoffQueue<std::uint64_t> queue(2);

  std::atomic<std::uint64_t> pushed{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &pushed, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        if (!queue.push(p * kPerProducer + i)) return;
        pushed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::atomic<std::uint64_t> popped{0};
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&queue, &popped, &sum] {
      while (auto v = queue.pop()) {
        popped.fetch_add(1, std::memory_order_relaxed);
        sum.fetch_add(*v, std::memory_order_relaxed);
      }
    });
  }

  for (auto& t : producers) t.join();
  queue.close();
  for (auto& t : consumers) t.join();

  constexpr std::uint64_t kTotal = kProducers * kPerProducer;
  EXPECT_EQ(pushed.load(), kTotal);
  EXPECT_EQ(popped.load(), kTotal);
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);
  EXPECT_EQ(queue.size(), 0u);
}

// close() racing against blocked producers: consumers stop early, so
// producers must observe push() -> false instead of blocking forever.
TEST(HandoffQueueStress, CloseUnblocksStalledProducers) {
  HandoffQueue<int> queue(1);
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&queue, &rejected] {
      for (int i = 0; i < 500; ++i) {
        if (!queue.push(i)) {
          rejected.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  // Drain a handful of elements, then slam the door.
  for (int i = 0; i < 5; ++i) (void)queue.pop();
  queue.close();
  for (auto& t : producers) t.join();
  EXPECT_GT(rejected.load(), 0);
  EXPECT_FALSE(queue.push(99));
  while (queue.pop()) {
  }
  EXPECT_FALSE(queue.pop().has_value());
}

// Tenant-ingress seam under contention: many producer threads try_push
// into per-tenant bounded queues with a tiny capacity (so sheds race with
// drains) while one consumer pop_any()s everything. Conservation per
// tenant: every accepted item is popped exactly once, sheds account for
// the rest. TSan watches the mutex/condvar handoff and the close/drain
// handshake that check::Sched model-checks exhaustively.
TEST(TenantIngressStress, ManyProducersSingleDrainerConservation) {
  constexpr std::size_t kTenants = 3;
  constexpr std::size_t kProducers = 6;
  constexpr std::uint64_t kPerProducer = 2000;
  core::TenantIngress ingress(kTenants, 2);

  std::atomic<std::uint64_t> accepted[kTenants] = {};
  std::atomic<std::uint64_t> shed[kTenants] = {};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const std::size_t tenant = p % kTenants;
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t id = p * kPerProducer + i;
        if (ingress.try_push(tenant, id)) {
          accepted[tenant].fetch_add(1, std::memory_order_relaxed);
        } else {
          shed[tenant].fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::uint64_t popped[kTenants] = {};
  std::thread drainer([&] {
    while (auto item = ingress.pop_any()) ++popped[item->first];
  });

  for (auto& t : producers) t.join();
  ingress.close();
  drainer.join();

  for (std::size_t t = 0; t < kTenants; ++t) {
    EXPECT_EQ(popped[t], accepted[t].load()) << "tenant " << t;
    EXPECT_EQ(accepted[t].load() + shed[t].load(),
              (kProducers / kTenants) * kPerProducer)
        << "tenant " << t;
  }
  // Close-then-drain: nothing poppable or pushable afterwards.
  EXPECT_FALSE(ingress.try_push(0, 1));
  EXPECT_FALSE(ingress.pop_any().has_value());
}

// close() racing a drainer blocked on all-empty queues: the consumer must
// wake and observe nullopt, never a lost wakeup.
TEST(TenantIngressStress, CloseWakesBlockedDrainer) {
  for (int round = 0; round < 50; ++round) {
    core::TenantIngress ingress(2, 4);
    std::thread drainer([&] {
      while (ingress.pop_any()) {
      }
    });
    (void)ingress.try_push(1, 7);
    ingress.close();
    drainer.join();  // hangs here if the wakeup is lost
  }
}

}  // namespace
