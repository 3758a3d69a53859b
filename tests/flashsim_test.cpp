// Unit tests for src/flashsim: event ordering, FIFO service, the fixed
// timing model, and the simulator conservation invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "flashsim/flash_array.hpp"
#include "util/rng.hpp"

namespace flashqos::flashsim {
namespace {

std::shared_ptr<const ModuleModel> fixed_model(SimTime per_page = kPageReadLatency) {
  return std::make_shared<FixedLatencyModel>(per_page);
}

TEST(FlashArray, SingleRequestTakesOneLatency) {
  FlashArray a(4, fixed_model());
  a.submit({.id = 1, .device = 2, .submit_time = 1000, .pages = 1});
  a.run();
  const auto& c = a.completions();
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].id, 1u);
  EXPECT_EQ(c[0].start, 1000);
  EXPECT_EQ(c[0].finish, 1000 + kPageReadLatency);
  EXPECT_EQ(c[0].response_time(), kPageReadLatency);
}

TEST(FlashArray, FifoSerializesOneDevice) {
  FlashArray a(1, fixed_model(100));
  for (std::uint64_t i = 0; i < 5; ++i) {
    a.submit({.id = i, .device = 0, .submit_time = 0, .pages = 1});
  }
  a.run();
  const auto& c = a.completions();
  ASSERT_EQ(c.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(c[i].id, i) << "FIFO order by submission sequence";
    EXPECT_EQ(c[i].start, static_cast<SimTime>(i) * 100);
    EXPECT_EQ(c[i].finish, static_cast<SimTime>(i + 1) * 100);
  }
}

TEST(FlashArray, DevicesRunInParallel) {
  FlashArray a(3, fixed_model(100));
  for (std::uint64_t d = 0; d < 3; ++d) {
    a.submit({.id = d, .device = static_cast<DeviceId>(d), .submit_time = 0});
  }
  a.run();
  for (const auto& c : a.completions()) {
    EXPECT_EQ(c.start, 0);
    EXPECT_EQ(c.finish, 100);
  }
}

TEST(FlashArray, MultiPageRequestsScale) {
  FlashArray a(1, fixed_model(100));
  a.submit({.id = 0, .device = 0, .submit_time = 0, .pages = 4});
  a.run();
  EXPECT_EQ(a.completions()[0].finish, 400);
}

TEST(FlashArray, IdleGapThenService) {
  FlashArray a(1, fixed_model(100));
  a.submit({.id = 0, .device = 0, .submit_time = 0});
  a.submit({.id = 1, .device = 0, .submit_time = 500});
  a.run();
  const auto& c = a.completions();
  EXPECT_EQ(c[1].start, 500);  // device idled between requests
}

TEST(FlashArray, RunUntilProcessesPrefixOnly) {
  FlashArray a(1, fixed_model(100));
  a.submit({.id = 0, .device = 0, .submit_time = 0});
  a.submit({.id = 1, .device = 0, .submit_time = 1000});
  a.run_until(150);
  EXPECT_EQ(a.completions().size(), 1u);
  EXPECT_EQ(a.now(), 150);
  a.run();
  EXPECT_EQ(a.completions().size(), 2u);
}

TEST(FlashArray, InterleavedSubmitAndRun) {
  FlashArray a(2, fixed_model(100));
  a.submit({.id = 0, .device = 0, .submit_time = 0});
  a.run_until(50);
  a.submit({.id = 1, .device = 0, .submit_time = 60});
  a.run();
  const auto& c = a.completions();
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[1].start, 100);  // queued behind the in-flight request
}

TEST(FlashArray, RejectsSubmitIntoPast) {
  FlashArray a(1, fixed_model(100));
  a.submit({.id = 0, .device = 0, .submit_time = 100});
  a.run();
  EXPECT_DEATH(a.submit({.id = 1, .device = 0, .submit_time = 50}), "past");
}

TEST(FlashArray, ConservationEveryRequestCompletesOnce) {
  Rng rng(5);
  FlashArray a(9, fixed_model());
  constexpr std::uint64_t kRequests = 2000;
  std::vector<IoRequest> reqs;
  SimTime t = 0;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    t += static_cast<SimTime>(rng.below(50000));
    reqs.push_back({.id = i,
                    .device = static_cast<DeviceId>(rng.below(9)),
                    .submit_time = t,
                    .pages = 1});
    a.submit(reqs.back());
  }
  a.run();
  const auto& c = a.completions();
  ASSERT_EQ(c.size(), kRequests);
  std::map<std::uint64_t, const IoCompletion*> by_id;
  for (const auto& comp : c) {
    EXPECT_TRUE(by_id.emplace(comp.id, &comp).second) << "duplicate completion";
  }
  // Per-device service intervals never overlap; responses >= service time.
  std::map<DeviceId, std::vector<std::pair<SimTime, SimTime>>> busy;
  for (const auto& comp : c) {
    EXPECT_GE(comp.start, comp.submit_time);
    EXPECT_EQ(comp.finish - comp.start, kPageReadLatency);
    busy[comp.device].emplace_back(comp.start, comp.finish);
  }
  for (auto& [dev, spans] : busy) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].first, spans[i - 1].second)
          << "device " << dev << " served two requests at once";
    }
  }
}

TEST(FlashArray, TakeCompletionsDrains) {
  FlashArray a(1, fixed_model(10));
  a.submit({.id = 0, .device = 0, .submit_time = 0});
  a.run();
  EXPECT_EQ(a.take_completions().size(), 1u);
  EXPECT_TRUE(a.completions().empty());
}

}  // namespace
}  // namespace flashqos::flashsim
