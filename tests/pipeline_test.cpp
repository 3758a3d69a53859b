// Unit tests for core::QosPipeline and replay_original: deterministic
// guarantee end to end, deferral accounting, interval-aligned vs online
// semantics, statistical admission behaviour, original-stand replay.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/qos_pipeline.hpp"
#include "core/sampler.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "trace/cursor.hpp"
#include "trace/synthetic.hpp"
#include "trace/workload.hpp"
#include "verify/result_compare.hpp"

namespace flashqos::core {
namespace {

using decluster::DesignTheoretic;

const design::BlockDesign& design931() {
  static const auto d = design::make_9_3_1();
  return d;
}

trace::Trace bucket_trace(std::vector<std::pair<SimTime, BucketId>> reqs) {
  trace::Trace t;
  t.name = "unit";
  t.volumes = 0;
  t.report_interval = kSecond;
  for (const auto& [time, bucket] : reqs) {
    t.events.push_back({.time = time, .block = bucket, .device = 0});
  }
  return t;
}

TEST(QosPipeline, GuaranteedBatchMeetsDeadline) {
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kIntervalAligned;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  QosPipeline pipe(scheme, cfg);
  // 5 requests exactly on a boundary: all must finish within one latency.
  const auto r = pipe.run(bucket_trace({{0, 0}, {0, 7}, {0, 14}, {0, 21}, {0, 30}}));
  EXPECT_EQ(r.deadline_violations, 0u);
  EXPECT_EQ(r.overall.deferred, 0u);
  for (const auto& o : r.outcomes) {
    EXPECT_EQ(o.dispatch, 0);
    EXPECT_EQ(o.finish, kPageReadLatency);
  }
}

TEST(QosPipeline, SixthRequestIsDeferred) {
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kIntervalAligned;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  QosPipeline pipe(scheme, cfg);
  const auto r =
      pipe.run(bucket_trace({{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}));
  EXPECT_EQ(r.overall.deferred, 1u);
  // The deferred request dispatches at the next interval boundary.
  std::size_t deferred_idx = 0;
  for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
    if (r.outcomes[i].deferred()) deferred_idx = i;
  }
  EXPECT_EQ(r.outcomes[deferred_idx].dispatch, kBaseInterval);
  EXPECT_EQ(r.outcomes[deferred_idx].delay(), kBaseInterval);
  EXPECT_EQ(r.deadline_violations, 0u);
}

TEST(QosPipeline, DeferralIsFifo) {
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kIntervalAligned;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  QosPipeline pipe(scheme, cfg);
  // 12 simultaneous requests: 5 now, 5 next interval, 2 the one after;
  // deferral must respect arrival order (trace order).
  std::vector<std::pair<SimTime, BucketId>> reqs;
  for (BucketId b = 0; b < 12; ++b) reqs.push_back({0, b});
  const auto r = pipe.run(bucket_trace(reqs));
  EXPECT_EQ(r.overall.deferred, 7u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(r.outcomes[i].dispatch, 0);
  for (std::size_t i = 5; i < 10; ++i) {
    EXPECT_EQ(r.outcomes[i].dispatch, kBaseInterval) << i;
  }
  for (std::size_t i = 10; i < 12; ++i) {
    EXPECT_EQ(r.outcomes[i].dispatch, 2 * kBaseInterval) << i;
  }
}

TEST(QosPipeline, OnlineServesMidIntervalImmediately) {
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kOnline;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  QosPipeline pipe(scheme, cfg);
  const SimTime mid = kBaseInterval / 2;
  const auto r = pipe.run(bucket_trace({{mid, 0}}));
  EXPECT_EQ(r.outcomes[0].dispatch, mid);
  EXPECT_EQ(r.outcomes[0].start, mid);
  EXPECT_EQ(r.outcomes[0].finish, mid + kPageReadLatency);
  EXPECT_FALSE(r.outcomes[0].deferred());
}

TEST(QosPipeline, AlignedDefersMidIntervalToBoundary) {
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kIntervalAligned;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  QosPipeline pipe(scheme, cfg);
  const SimTime mid = kBaseInterval / 2;
  const auto r = pipe.run(bucket_trace({{mid, 0}}));
  EXPECT_EQ(r.outcomes[0].dispatch, kBaseInterval);
  EXPECT_EQ(r.outcomes[0].finish, kBaseInterval + kPageReadLatency);
}

TEST(QosPipeline, AdmissionNoneAcceptsEverything) {
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kIntervalAligned;
  cfg.admission = AdmissionMode::kNone;
  cfg.mapping = MappingMode::kModulo;
  QosPipeline pipe(scheme, cfg);
  std::vector<std::pair<SimTime, BucketId>> reqs;
  for (BucketId b = 0; b < 20; ++b) reqs.push_back({0, b % 36});
  const auto r = pipe.run(bucket_trace(reqs));
  EXPECT_EQ(r.overall.deferred, 0u);
  // 20 requests on 9 devices: at least ⌈20/9⌉ = 3 rounds somewhere.
  EXPECT_GE(r.overall.max_response_ms, to_ms(3 * kPageReadLatency) - 1e-9);
}

TEST(QosPipeline, StatisticalAdmitsSixWithLooseEpsilon) {
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kIntervalAligned;
  cfg.admission = AdmissionMode::kStatistical;
  cfg.mapping = MappingMode::kModulo;
  cfg.epsilon = 0.5;
  cfg.p_table = sample_optimal_probabilities(scheme, 12, {.samples_per_size = 500});
  QosPipeline pipe(scheme, cfg);
  const auto r =
      pipe.run(bucket_trace({{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}));
  EXPECT_EQ(r.overall.deferred, 0u) << "ε = 0.5 accepts the 6th request";
}

TEST(QosPipeline, StatisticalTightEpsilonDefersLikeDeterministic) {
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kIntervalAligned;
  cfg.admission = AdmissionMode::kStatistical;
  cfg.mapping = MappingMode::kModulo;
  cfg.epsilon = 0.0;
  cfg.p_table = sample_optimal_probabilities(scheme, 12, {.samples_per_size = 500});
  QosPipeline pipe(scheme, cfg);
  const auto r =
      pipe.run(bucket_trace({{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}));
  EXPECT_EQ(r.overall.deferred, 1u);
}

TEST(QosPipeline, EmptyTrace) {
  const DesignTheoretic scheme(design931(), true);
  QosPipeline pipe(scheme, {});
  const auto r = pipe.run(trace::Trace{});
  EXPECT_TRUE(r.outcomes.empty());
  EXPECT_TRUE(r.intervals.empty());
}

TEST(QosPipeline, ReportsSliceByArrivalInterval) {
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kOnline;
  cfg.admission = AdmissionMode::kNone;
  cfg.mapping = MappingMode::kModulo;
  QosPipeline pipe(scheme, cfg);
  trace::Trace t = bucket_trace({{0, 0}, {kSecond + 5, 1}, {kSecond + 10, 2}});
  const auto r = pipe.run(t);
  ASSERT_EQ(r.intervals.size(), 2u);
  EXPECT_EQ(r.intervals[0].requests, 1u);
  EXPECT_EQ(r.intervals[1].requests, 2u);
}

TEST(SliceTransactions, CutsAtQosIntervalsAndSliceBoundaries) {
  // T = 10, reporting slices of 25: the QoS interval [20, 30) straddles
  // the first slice boundary, so its reads split into two transactions.
  SliceTransactions slices(10, 25);
  const auto ev = [](SimTime time, DataBlockId block, bool is_read = true) {
    return trace::TraceEvent{.time = time, .block = block, .is_read = is_read};
  };
  for (const auto& e : {ev(0, 1), ev(5, 2), ev(12, 3), ev(20, 4, false), ev(24, 5),
                        ev(26, 6), ev(80, 7)}) {
    slices.add(e);
  }
  using Txs = std::vector<std::vector<fim::Item>>;
  const auto txs = [](const fim::TransactionDb& db) {
    Txs out;
    for (std::size_t i = 0; i < db.size(); ++i) {
      const auto t = db.transaction(i);
      out.emplace_back(t.begin(), t.end());
    }
    return out;
  };
  ASSERT_TRUE(slices.ready());
  EXPECT_EQ(txs(slices.take()), (Txs{{1, 2}, {3}, {5}}));  // the write is skipped
  EXPECT_EQ(txs(slices.take()), (Txs{{6}}));
  EXPECT_EQ(txs(slices.take()), Txs{});  // [50, 75) had no events
  EXPECT_FALSE(slices.ready());
  slices.close_until(99);
  EXPECT_FALSE(slices.ready()) << "slice [75, 100) can still gain events at 99";
  slices.close_until(100);
  ASSERT_TRUE(slices.ready());
  EXPECT_EQ(txs(slices.take()), (Txs{{7}}));
}

// An idle gap of a million reporting slices is one held record, not a
// million empty transaction databases, and the slices still come out one
// by one (take) or as a run (skip_empty).
TEST(SliceTransactions, AnIdleGapIsHeldAsOneRun) {
  constexpr std::size_t kGap = 1'000'000;  // empty slices between the reads
  SliceTransactions slices(10, 25);
  slices.add({.time = 0, .block = 1});
  slices.add({.time = static_cast<SimTime>(kGap + 1) * 25, .block = 2});
  EXPECT_EQ(slices.held(), 2u) << "slice 0, then one run of empty slices";
  const auto items = [](const fim::TransactionDb& db) {
    return std::vector<fim::Item>(db.items().begin(), db.items().end());
  };
  ASSERT_TRUE(slices.ready());
  EXPECT_EQ(items(slices.take()), std::vector<fim::Item>{1});
  EXPECT_EQ(slices.skip_empty(0), 0u);
  EXPECT_TRUE(slices.take().empty());  // the run's first slice, alone
  EXPECT_EQ(slices.skip_empty(10), 10u);
  EXPECT_EQ(slices.held(), 1u);
  EXPECT_EQ(slices.skip_empty(kGap), kGap - 11);
  EXPECT_FALSE(slices.ready());
  slices.close_until(std::numeric_limits<SimTime>::max());
  EXPECT_EQ(slices.held(), 2u) << "the read's slice, then one run";
  EXPECT_EQ(slices.skip_empty(1), 0u) << "the oldest slice has a transaction";
  EXPECT_EQ(items(slices.take()), std::vector<fim::Item>{2});
  slices.finish();
  EXPECT_EQ(slices.held(), 1u);
}

/// Serves slice `idx` mined from the events that fall in it, so a replay
/// through it rebuilds the mapper once per reporting slice, empty or not.
class PerSliceFimSource final : public FimSource {
 public:
  PerSliceFimSource(const trace::Trace& t, SimTime qos_interval) {
    for (std::size_t begin = 0; begin < t.events.size();) {
      const auto idx = static_cast<std::size_t>(t.events[begin].time / t.report_interval);
      std::size_t end = begin;
      while (end < t.events.size() &&
             static_cast<std::size_t>(t.events[end].time / t.report_interval) == idx) {
        ++end;
      }
      mined_[idx] = mine_event_range(t, begin, end, qos_interval, 1);
      begin = end;
    }
  }

  std::span<const fim::FrequentPair> slice(std::size_t idx) override {
    ++served;
    const auto it = mined_.find(idx);
    return it == mined_.end() ? std::span<const fim::FrequentPair>{} : it->second;
  }

  std::size_t served = 0;

 private:
  std::map<std::size_t, std::vector<fim::FrequentPair>> mined_;
};

class OutcomeLog final : public OutcomeSink {
 public:
  void on_outcome(std::uint64_t /*seq*/, const trace::TraceEvent& /*ev*/,
                  const RequestOutcome& out) override {
    outcomes.push_back(out);
  }
  std::vector<RequestOutcome> outcomes;
};

// A million empty reporting slices between two bursts: the inline rollover
// crosses them with one rebuild, and every outcome matches a replay that
// rebuilds once per slice. The bursts pair blocks 0 and 1, so slice 1's
// reads match the pairs mined from slice 0, and the reads after the gap
// match nothing (the empty slices reset the mapper).
TEST(QosPipeline, IdleGapReplaysLikeOneRebuildPerSlice) {
  constexpr std::size_t kGap = 1'000'000;
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kIntervalAligned;
  cfg.mapping = MappingMode::kFim;
  trace::Trace t;
  t.name = "gap";
  t.report_interval = kMillisecond;
  const auto burst = [&](std::size_t slice) {
    for (SimTime q = 0; q < 4; ++q) {
      const SimTime at = static_cast<SimTime>(slice) * kMillisecond + q * kBaseInterval;
      t.events.push_back({.time = at, .block = 0});
      t.events.push_back({.time = at, .block = 1});
    }
  };
  burst(0);
  burst(1);
  burst(kGap + 2);
  const auto replay = [&](FimSource* fim) {
    OutcomeLog log;
    trace::VectorCursor cursor(t);
    const auto r = QosPipeline(scheme, cfg).run_stream(
        cursor, fim, {.keep_intervals = false, .sink = &log});
    EXPECT_EQ(r.requests, t.events.size());
    return log.outcomes;
  };
  const auto got = replay(nullptr);
  PerSliceFimSource source(t, cfg.qos_interval);
  const auto want = replay(&source);
  EXPECT_EQ(source.served, kGap + 2) << "the reference rebuilds per slice";
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].dispatch, want[i].dispatch) << i;
    EXPECT_EQ(got[i].start, want[i].start) << i;
    EXPECT_EQ(got[i].finish, want[i].finish) << i;
    EXPECT_EQ(got[i].device, want[i].device) << i;
    EXPECT_EQ(got[i].fim_matched, want[i].fim_matched) << i;
    EXPECT_EQ(got[i].path, want[i].path) << i;
  }
  EXPECT_TRUE(got[8].fim_matched) << "slice 1 maps by slice 0's pairs";
  EXPECT_FALSE(got.back().fim_matched) << "the gap reset the mapper";
}

TEST(ReplayOriginal, QueueingShowsInResponseTimes) {
  trace::Trace t;
  t.name = "orig";
  t.volumes = 2;
  t.report_interval = kSecond;
  // Three simultaneous requests to volume 0: FIFO queueing.
  t.events = {{.time = 0, .block = 1, .device = 0},
              {.time = 0, .block = 2, .device = 0},
              {.time = 0, .block = 3, .device = 0}};
  const auto r = replay_original(t);
  EXPECT_DOUBLE_EQ(r.overall.max_response_ms, to_ms(3 * kPageReadLatency));
  EXPECT_EQ(r.deadline_violations, 2u);  // 2nd and 3rd exceed 0.133 ms
  EXPECT_EQ(r.overall.deferred, 0u);
}

TEST(ReplayOriginal, ParallelVolumesNoQueueing) {
  trace::Trace t;
  t.volumes = 3;
  t.report_interval = kSecond;
  t.events = {{.time = 0, .block = 1, .device = 0},
              {.time = 0, .block = 2, .device = 1},
              {.time = 0, .block = 3, .device = 2}};
  const auto r = replay_original(t);
  EXPECT_DOUBLE_EQ(r.overall.max_response_ms, to_ms(kPageReadLatency));
  EXPECT_EQ(r.deadline_violations, 0u);
}

TEST(QosPipeline, FimMappingMatchesAfterFirstInterval) {
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kOnline;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kFim;
  QosPipeline pipe(scheme, cfg);
  trace::Trace t;
  t.volumes = 0;
  t.report_interval = 10 * kBaseInterval;
  // Interval 0: blocks 100 and 200 co-occur (same QoS window) repeatedly.
  // Interval 1: the same blocks return — they must be FIM-matched.
  for (int rep = 0; rep < 3; ++rep) {
    const SimTime base = rep * 2 * kBaseInterval;
    t.events.push_back({.time = base, .block = 100, .device = 0});
    t.events.push_back({.time = base, .block = 200, .device = 0});
  }
  const SimTime second = 10 * kBaseInterval;
  t.events.push_back({.time = second, .block = 100, .device = 0});
  t.events.push_back({.time = second, .block = 200, .device = 0});
  t.events.push_back({.time = second, .block = 999, .device = 0});
  const auto r = pipe.run(t);
  ASSERT_EQ(r.intervals.size(), 2u);
  EXPECT_DOUBLE_EQ(r.intervals[0].fim_match_rate, 0.0)
      << "no history before the first interval";
  EXPECT_NEAR(r.intervals[1].fim_match_rate, 2.0 / 3.0, 1e-9);
}

TEST(QosPipeline, OutcomesCoverEveryRequestExactlyOnce) {
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kOnline;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  QosPipeline pipe(scheme, cfg);
  const auto t = trace::generate_synthetic({.bucket_pool = 36,
                                            .requests_per_interval = 5,
                                            .total_requests = 500,
                                            .seed = 3});
  const auto r = pipe.run(t);
  ASSERT_EQ(r.outcomes.size(), 500u);
  for (const auto& o : r.outcomes) {
    EXPECT_NE(o.device, kInvalidDevice);
    EXPECT_GE(o.dispatch, o.arrival);
    EXPECT_GE(o.start, o.dispatch);
    EXPECT_EQ(o.finish - o.start, kPageReadLatency);
  }
}

/// Serves precomputed slices in place of inline mining, recording the
/// order the replay asks for them.
class PrecomputedFimSource final : public FimSource {
 public:
  explicit PrecomputedFimSource(std::vector<std::vector<fim::FrequentPair>> slices)
      : slices_(std::move(slices)) {}

  std::span<const fim::FrequentPair> slice(std::size_t idx) override {
    requested.push_back(idx);
    return slices_.at(idx);
  }

  std::vector<std::size_t> requested;

 private:
  std::vector<std::vector<fim::FrequentPair>> slices_;
};

// run_stream's FimSource seam: slices mined by mine_event_range over
// trace::report_slices, served in place of inline mining, must replay
// exactly like run(), which mines inline. This also pins that a caller
// mining slices outside the engine mines the engine's slices.
TEST(QosPipeline, FimSourceSlicesMatchInlineMining) {
  const DesignTheoretic scheme(design931(), true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kIntervalAligned;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kFim;
  const auto t = trace::generate_workload(trace::exchange_params(0.02, 2012));
  const auto want = QosPipeline(scheme, cfg).run(t);
  ASSERT_GT(want.overall.fim_match_rate, 0.0) << "the comparison needs FIM matches";

  std::vector<std::vector<fim::FrequentPair>> mined;
  for (const auto& [begin, end] : trace::report_slices(t)) {
    mined.push_back(
        mine_event_range(t, begin, end, cfg.qos_interval, cfg.fim_min_support));
  }
  ASSERT_GT(mined.size(), 1u);
  PrecomputedFimSource source(mined);
  trace::VectorCursor cursor(t);
  const auto got = QosPipeline(scheme, cfg).run_stream(cursor, &source);

  std::string why;
  EXPECT_TRUE(verify::stream_result_matches(want, got, &why)) << why;
  ASSERT_FALSE(source.requested.empty());
  for (std::size_t i = 0; i < source.requested.size(); ++i) {
    EXPECT_EQ(source.requested[i], i) << "slices are asked for in order";
  }
}

}  // namespace
}  // namespace flashqos::core
