// Unit tests for src/trace: trace validity, report slicing, DiskSim
// round-trip, the synthetic generator's contract, workload model
// statistics, and interval statistics.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "trace/disksim_format.hpp"
#include "trace/stats.hpp"
#include "trace/synthetic.hpp"
#include "trace/workload.hpp"

namespace flashqos::trace {
namespace {

TEST(TraceEventChecks, ValidityRules) {
  Trace t;
  t.volumes = 2;
  t.events = {{.time = 0, .block = 1, .device = 0},
              {.time = 10, .block = 2, .device = 1}};
  EXPECT_TRUE(valid_trace(t));
  t.events.push_back({.time = 5, .block = 3, .device = 0});  // out of order
  EXPECT_FALSE(valid_trace(t));
  t.events.pop_back();
  t.events.push_back({.time = 20, .block = 3, .device = 7});  // device range
  EXPECT_FALSE(valid_trace(t));
  t.events.back() = {.time = kMaxEventTime, .block = 3, .device = 1};
  EXPECT_TRUE(valid_trace(t));
  t.events.push_back({.time = kMaxEventTime + 1, .block = 4, .device = 1});
  EXPECT_FALSE(valid_trace(t)) << "past the simulated-time ceiling";
}

TEST(ReportSlices, PartitionsEvents) {
  Trace t;
  t.report_interval = 100;
  for (SimTime time : {0, 10, 99, 100, 150, 250}) {
    t.events.push_back({.time = time, .block = 0, .device = 0});
  }
  const auto slices = report_slices(t);
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_EQ(slices[0], (std::pair<std::size_t, std::size_t>{0, 3}));
  EXPECT_EQ(slices[1], (std::pair<std::size_t, std::size_t>{3, 5}));
  EXPECT_EQ(slices[2], (std::pair<std::size_t, std::size_t>{5, 6}));
}

TEST(ReportSlices, EmptyTrace) {
  Trace t;
  t.report_interval = 100;
  EXPECT_TRUE(report_slices(t).empty());
}

TEST(DiskSimFormat, RoundTrips) {
  Trace t;
  t.name = "rt";
  t.volumes = 4;
  t.report_interval = kMillisecond;
  t.events = {
      {.time = 0, .block = 100, .device = 0, .size_blocks = 1, .is_read = true},
      {.time = 132507, .block = 250, .device = 3, .size_blocks = 2, .is_read = true},
      {.time = 500000, .block = 7, .device = 1, .size_blocks = 1, .is_read = false},
      // Past one hour, one nanosecond apart: six significant digits would
      // collapse these onto one instant.
      {.time = 3600 * kSecond + 7, .block = 8, .device = 2, .size_blocks = 1},
      {.time = 3600 * kSecond + 8, .block = 9, .device = 2, .size_blocks = 1},
      {.time = 3 * 3600 * kSecond + 123456789, .block = 10, .device = 0,
       .size_blocks = 1},
  };
  std::stringstream ss;
  write_disksim_ascii(t, ss);
  const auto back = read_disksim_ascii(ss, "rt", 4, kMillisecond);
  ASSERT_EQ(back.events.size(), t.events.size());
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    EXPECT_EQ(back.events[i].block, t.events[i].block);
    EXPECT_EQ(back.events[i].device, t.events[i].device);
    EXPECT_EQ(back.events[i].size_blocks, t.events[i].size_blocks);
    EXPECT_EQ(back.events[i].is_read, t.events[i].is_read);
    EXPECT_EQ(back.events[i].time, t.events[i].time);
  }
}

TEST(DiskSimFormat, RejectsMalformedLine) {
  std::stringstream ss("0.1 0 100 not-a-number 1\n");
  EXPECT_THROW(read_disksim_ascii(ss, "x", 1, kMillisecond), std::runtime_error);
}

// 2^62 ns is 4611686018427.387904 ms: a time past it throws, whether it
// would fit in 64 bits (4611686018428 ms) or not (1e300 ms) — instead of
// replaying at a wrapped or overflowing instant.
TEST(DiskSimFormat, RejectsTimesPastTheCeiling) {
  std::stringstream ok("4611686018427 0 1 16 1\n");
  EXPECT_EQ(read_disksim_ascii(ok, "x", 1, kMillisecond).events.at(0).time,
            from_ms(4611686018427.0));  // just below, to double precision
  for (const char* time : {"4611686018428", "1e300", "-1e300"}) {
    std::stringstream ss(std::string(time) + " 0 1 16 1\n");
    EXPECT_THROW(read_disksim_ascii(ss, "x", 1, kMillisecond), std::runtime_error)
        << time;
  }
}

TEST(DiskSimFormat, SkipsComments) {
  std::stringstream ss("# header\n0.0 0 1 16 1\n");
  const auto t = read_disksim_ascii(ss, "x", 1, kMillisecond);
  EXPECT_EQ(t.events.size(), 1u);
}

TEST(Synthetic, ContractOfThePaperGenerator) {
  const SyntheticParams p{.bucket_pool = 36,
                          .interval = 133 * kMicrosecond,
                          .requests_per_interval = 5,
                          .total_requests = 10000,
                          .seed = 1};
  const auto t = generate_synthetic(p);
  EXPECT_EQ(t.events.size(), 10000u);
  EXPECT_TRUE(valid_trace(t));
  std::set<DataBlockId> blocks;
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    const auto& e = t.events[i];
    EXPECT_LT(e.block, 36u);
    EXPECT_EQ(e.time % (133 * kMicrosecond), 0) << "requests sit on boundaries";
    blocks.insert(e.block);
  }
  EXPECT_EQ(blocks.size(), 36u) << "all buckets eventually drawn";
  // Exactly 5 per interval.
  std::size_t i = 0;
  while (i < t.events.size()) {
    std::size_t j = i;
    while (j < t.events.size() && t.events[j].time == t.events[i].time) ++j;
    EXPECT_EQ(j - i, 5u);
    i = j;
  }
}

TEST(Synthetic, DeterministicPerSeed) {
  const SyntheticParams p{.total_requests = 100, .seed = 9};
  const auto a = generate_synthetic(p);
  const auto b = generate_synthetic(p);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].block, b.events[i].block);
  }
}

// jitter_slots + 1 used to be 32-bit arithmetic: UINT32_MAX slots wrapped
// it to 0 and the step division died of SIGFPE.
TEST(MultiTenant, JitterAtTheTopOfItsRangeStaysInItsInterval) {
  MultiTenantParams p;
  p.interval = SimTime{1} << 40;
  p.intervals = 2;
  p.tenants = {{.requests_per_interval = 4, .bucket_pool = 8}};
  p.jitter_slots = std::numeric_limits<std::uint32_t>::max();
  const auto t = generate_multi_tenant(p);
  ASSERT_EQ(t.events.size(), 8u);
  EXPECT_TRUE(valid_trace(t)) << "events are time-sorted";
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    EXPECT_EQ(t.events[i].time / p.interval, static_cast<SimTime>(i / 4))
        << "event " << i << " left its interval";
  }
}

// A jitter step of interval / (jitter_slots + 1) rounds to 0 ns once the
// slots reach the interval's length: a contract violation, not a trace
// whose arrivals spill into later intervals.
TEST(MultiTenantDeathTest, JitterSlotsMustStayBelowTheInterval) {
  MultiTenantParams p;
  p.interval = 1000;
  p.intervals = 2;
  p.tenants = {{.requests_per_interval = 2, .bucket_pool = 8}};
  p.jitter_slots = 1000;
  EXPECT_DEATH((void)generate_multi_tenant(p), "jitter_slots");
  p.jitter_slots = 999;
  EXPECT_EQ(generate_multi_tenant(p).events.size(), 4u);
}

TEST(Workload, ExchangeShape) {
  auto p = exchange_params(0.25, 7);  // small for test speed
  p.report_intervals = 24;
  const auto t = generate_workload(p);
  EXPECT_TRUE(valid_trace(t));
  EXPECT_EQ(t.volumes, 9u);
  EXPECT_GT(t.events.size(), 1000u);
  for (const auto& e : t.events) EXPECT_LT(e.device, 9u);
  EXPECT_EQ(t.report_intervals(), 24u);
}

TEST(Workload, TpceShape) {
  auto p = tpce_params(0.1, 7);
  const auto t = generate_workload(p);
  EXPECT_TRUE(valid_trace(t));
  EXPECT_EQ(t.volumes, 13u);
  EXPECT_EQ(t.report_intervals(), 6u);
}

TEST(Workload, BurstsShareTimestamps) {
  // Exchange is the bursty preset (TPC-E is deliberately near-singleton).
  auto p = exchange_params(0.5, 11);
  p.report_intervals = 8;
  const auto t = generate_workload(p);
  std::size_t burst_events = 0;
  for (std::size_t i = 1; i < t.events.size(); ++i) {
    if (t.events[i].time == t.events[i - 1].time) ++burst_events;
  }
  // Mean burst size 2 → about half the events share a timestamp with a
  // neighbour (the batch-arrival property the online scheduler exercises).
  EXPECT_GT(static_cast<double>(burst_events) /
                static_cast<double>(t.events.size()),
            0.3);
}

TEST(Workload, VolumePlacementIsDeterministic) {
  auto p = exchange_params(0.05, 3);
  p.report_intervals = 4;
  const auto t = generate_workload(p);
  std::map<DataBlockId, DeviceId> placement;
  for (const auto& e : t.events) {
    const auto [it, fresh] = placement.emplace(e.block, e.device);
    if (!fresh) {
      EXPECT_EQ(it->second, e.device) << "block moved volumes";
    }
  }
}

TEST(Workload, HotSetDriftControlsOverlap) {
  // Low drift (TPC-E-like): most of one interval's blocks reappear next
  // interval; high drift (Exchange-like): few do.
  auto lo = tpce_params(0.5, 5);
  auto hi = exchange_params(1.0, 5);
  hi.report_intervals = 6;
  const auto t_lo = generate_workload(lo);
  const auto t_hi = generate_workload(hi);
  const auto overlap = [](const Trace& t) {
    const auto slices = report_slices(t);
    double total = 0.0;
    int measured = 0;
    for (std::size_t s = 1; s < slices.size(); ++s) {
      std::set<DataBlockId> prev;
      for (std::size_t i = slices[s - 1].first; i < slices[s - 1].second; ++i) {
        prev.insert(t.events[i].block);
      }
      std::size_t hits = 0, n = 0;
      for (std::size_t i = slices[s].first; i < slices[s].second; ++i) {
        ++n;
        if (prev.count(t.events[i].block)) ++hits;
      }
      if (n > 0) {
        total += static_cast<double>(hits) / static_cast<double>(n);
        ++measured;
      }
    }
    return measured ? total / measured : 0.0;
  };
  EXPECT_GT(overlap(t_lo), 0.7);
  EXPECT_LT(overlap(t_hi), 0.4);
}

TEST(IntervalStatistics, CountsAndRates) {
  Trace t;
  t.report_interval = kSecond;
  // 4 reads in interval 0 (3 in the same 100 ms window), 1 in interval 1.
  t.events = {{.time = 0, .block = 0},
              {.time = 10 * kMillisecond, .block = 1},
              {.time = 20 * kMillisecond, .block = 2},
              {.time = 500 * kMillisecond, .block = 3},
              {.time = kSecond + 1, .block = 4}};
  const auto stats = interval_stats(t, 100 * kMillisecond);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].total_reads, 4u);
  EXPECT_DOUBLE_EQ(stats[0].avg_reads_per_sec, 4.0);
  EXPECT_DOUBLE_EQ(stats[0].max_reads_per_sec, 30.0);  // 3 in one 0.1 s window
  EXPECT_EQ(stats[1].total_reads, 1u);
}

}  // namespace
}  // namespace flashqos::trace
