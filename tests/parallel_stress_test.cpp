// Concurrency stress for the thread handoff seam, written to give
// ThreadSanitizer something to chew on: many producers and consumers on a
// tiny HandoffQueue. The assertions are deliberately simple — the point of
// these tests is the interleavings, and TSan turns any data race or
// lock-order bug they expose into a hard failure.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

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

}  // namespace
