// Unit tests for src/obs: sharded counter/gauge correctness under
// concurrency (scripts/check.sh replays this suite under TSan), histogram
// percentile exactness against a sorted-vector oracle in both the exact
// and bucket-fallback regimes, snapshot determinism across thread counts,
// tracer ring wraparound, exporter formats, and the end-to-end consistency
// of the instrumented pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/qos_pipeline.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace flashqos::obs {
namespace {

// ---------------------------------------------------------------------------
// Bucket math

TEST(BucketMath, RoundTripContainsValue) {
  std::vector<std::int64_t> samples = {0, 1, 2, 255, 256, 257, 1000, 4095};
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    samples.push_back(rng.between(0, kMaxTrackable));
  }
  samples.push_back(kMaxTrackable);
  for (const auto v : samples) {
    const auto idx = bucket_index(v);
    ASSERT_LT(idx, kBucketEntries) << "value " << v;
    EXPECT_LE(bucket_lo(idx), v) << "value " << v;
    EXPECT_LT(v, bucket_hi(idx)) << "value " << v;
  }
}

TEST(BucketMath, BoundariesAreContiguousAndMonotone) {
  for (std::size_t idx = 0; idx + 1 < kBucketEntries; ++idx) {
    ASSERT_LT(bucket_lo(idx), bucket_hi(idx)) << "bucket " << idx;
    ASSERT_EQ(bucket_hi(idx), bucket_lo(idx + 1)) << "bucket " << idx;
  }
  EXPECT_EQ(bucket_lo(0), 0);
  EXPECT_EQ(bucket_hi(kBucketEntries - 1), kMaxTrackable + 1);
}

TEST(BucketMath, RelativeErrorBounded) {
  // A bucket's width never exceeds 2^-8 of its lower bound (above the
  // unit-bucket range, where the error is zero).
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.between(256, kMaxTrackable);
    const auto idx = bucket_index(v);
    const double width = static_cast<double>(bucket_hi(idx) - bucket_lo(idx));
    EXPECT_LE(width, std::ldexp(static_cast<double>(bucket_lo(idx)), -7) + 1)
        << "value " << v;
  }
}

// ---------------------------------------------------------------------------
// Counter / gauge concurrency

TEST(Counter, ConcurrentIncrementsAllLand) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, ConcurrentUpDownNets) {
  Gauge g;
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&g, t] {
      for (int i = 0; i < 10000; ++i) {
        g.inc();
        if (t % 2 == 0) g.dec();
      }
    });
  }
  for (auto& w : workers) w.join();
  // Even threads net zero, odd threads net +10000 each.
  EXPECT_EQ(g.value(), 4 * 10000);
}

// ---------------------------------------------------------------------------
// Histogram: exactness and determinism

/// Nearest-rank oracle over the raw sample vector.
std::int64_t oracle_percentile(std::vector<std::int64_t> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return samples[rank - 1];
}

TEST(LatencyHistogram, ExactRegimeMatchesOracleExactly) {
  // Few distinct values (the simulated-latency case): the exact tracker
  // holds and every percentile is exact.
  LatencyHistogram h;
  std::vector<std::int64_t> samples;
  Rng rng(3);
  const std::int64_t distinct[] = {132507, 265014, 397521, 1000, 0};
  for (int i = 0; i < 20000; ++i) {
    const auto v = distinct[rng.below(5)];
    samples.push_back(v);
    h.record(v);
  }
  const auto snap = h.snapshot();
  ASSERT_TRUE(snap.exact);
  EXPECT_EQ(snap.count, samples.size());
  EXPECT_EQ(snap.min, *std::min_element(samples.begin(), samples.end()));
  EXPECT_EQ(snap.max, *std::max_element(samples.begin(), samples.end()));
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(snap.percentile(q), oracle_percentile(samples, q)) << "q=" << q;
  }
}

TEST(LatencyHistogram, FallbackRegimeWithinBucketError) {
  // More distinct values than the exact tracker holds: the snapshot falls
  // back to log buckets; quantiles keep <= 2^-8 relative error and
  // min/max/sum/count stay exact.
  LatencyHistogram h;
  std::vector<std::int64_t> samples;
  std::int64_t sum = 0;
  Rng rng(4);
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.between(0, 1 << 20);
    samples.push_back(v);
    sum += v;
    h.record(v);
  }
  const auto snap = h.snapshot();
  ASSERT_FALSE(snap.exact);
  EXPECT_EQ(snap.count, samples.size());
  EXPECT_EQ(snap.sum, sum);
  EXPECT_EQ(snap.min, *std::min_element(samples.begin(), samples.end()));
  EXPECT_EQ(snap.max, *std::max_element(samples.begin(), samples.end()));
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99}) {
    const auto want = oracle_percentile(samples, q);
    const auto got = snap.percentile(q);
    // The reported value is the containing bucket's lower bound.
    EXPECT_LE(got, want) << "q=" << q;
    EXPECT_GE(static_cast<double>(got),
              static_cast<double>(want) * (1.0 - std::ldexp(1.0, -7)) - 1.0)
        << "q=" << q;
  }
}

TEST(LatencyHistogram, NegativeAndOverflowValuesKeepExactMinMax) {
  LatencyHistogram h;
  h.record(-5);
  h.record(kMaxTrackable + 1000);  // clamps into the top bucket
  h.record(100);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.min, -5);
  EXPECT_EQ(snap.max, kMaxTrackable + 1000);
  EXPECT_EQ(snap.sum, -5 + kMaxTrackable + 1000 + 100);
}

bool snapshots_identical(const HistogramSnapshot& a, const HistogramSnapshot& b) {
  if (a.count != b.count || a.sum != b.sum || a.min != b.min ||
      a.max != b.max || a.exact != b.exact || a.values != b.values ||
      a.buckets.size() != b.buckets.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.buckets.size(); ++i) {
    if (a.buckets[i].lo != b.buckets[i].lo ||
        a.buckets[i].hi != b.buckets[i].hi ||
        a.buckets[i].count != b.buckets[i].count) {
      return false;
    }
  }
  return true;
}

TEST(LatencyHistogram, SnapshotDeterministicAcrossThreadCounts) {
  // The same recorded multiset must fold to an identical snapshot whether
  // it was recorded by 1, 2, or 8 threads (in both regimes).
  for (const bool exact_regime : {true, false}) {
    std::vector<std::int64_t> samples;
    Rng rng(5);
    for (int i = 0; i < 30000; ++i) {
      samples.push_back(exact_regime ? rng.between(0, 20)
                                     : rng.between(0, 1 << 22));
    }
    HistogramSnapshot reference;
    for (const int threads : {1, 2, 8}) {
      LatencyHistogram h;
      std::vector<std::thread> workers;
      workers.reserve(static_cast<std::size_t>(threads));
      const std::size_t chunk = samples.size() / static_cast<std::size_t>(threads);
      for (int t = 0; t < threads; ++t) {
        const std::size_t begin = static_cast<std::size_t>(t) * chunk;
        const std::size_t end =
            t == threads - 1 ? samples.size() : begin + chunk;
        workers.emplace_back([&h, &samples, begin, end] {
          for (std::size_t i = begin; i < end; ++i) h.record(samples[i]);
        });
      }
      for (auto& w : workers) w.join();
      const auto snap = h.snapshot();
      EXPECT_EQ(snap.exact, exact_regime);
      if (threads == 1) {
        reference = snap;
      } else {
        EXPECT_TRUE(snapshots_identical(reference, snap))
            << "threads=" << threads << " exact=" << exact_regime;
      }
    }
  }
}

TEST(LatencyHistogram, ExactLimitIsPerHistogramNotPerThread) {
  // The exact tracker holds kExactCapacity distinct values per histogram,
  // however many threads record: two threads with 40 distinct values each
  // make 80 > 64, so the snapshot falls back to the buckets.
  static_assert(kExactCapacity < 2 * 40);
  LatencyHistogram h;
  std::vector<std::thread> workers;
  for (std::int64_t t = 0; t < 2; ++t) {
    workers.emplace_back([&h, t] {
      for (std::int64_t v = 0; v < 40; ++v) h.record(t * 40 + v);
    });
  }
  for (auto& w : workers) w.join();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 80u);
  EXPECT_FALSE(snap.exact);
  EXPECT_TRUE(snap.values.empty());
}

// ---------------------------------------------------------------------------
// HistogramTally + merge against one record() per value

/// `n` values drawn from `distinct` distinct values in [lo, lo + span),
/// each distinct value at least once.
std::vector<std::int64_t> multiset(Rng& rng, std::size_t distinct, std::size_t n,
                                   std::int64_t lo, std::int64_t span) {
  std::vector<std::int64_t> pool;
  while (pool.size() < distinct) {
    const auto v = lo + rng.between(0, span - 1);
    if (std::find(pool.begin(), pool.end(), v) == pool.end()) pool.push_back(v);
  }
  std::vector<std::int64_t> out = pool;
  while (out.size() < n) out.push_back(pool[rng.below(pool.size())]);
  rng.shuffle(out);
  return out;
}

/// Publishing each of `parts` as one tally, in order, into a histogram that
/// already holds `preload` must leave exactly the snapshot of one record()
/// per value, whether the tally took each value alone or one add_n() per
/// run of equal values. Returns the merged snapshot.
HistogramSnapshot expect_merge_matches_records(
    const std::vector<std::int64_t>& preload,
    const std::vector<std::vector<std::int64_t>>& parts) {
  LatencyHistogram merged;
  LatencyHistogram merged_runs;
  LatencyHistogram recorded;
  for (const auto v : preload) {
    merged.record(v);
    merged_runs.record(v);
    recorded.record(v);
  }
  for (const auto& part : parts) {
    HistogramTally tally;
    HistogramTally runs;
    for (std::size_t i = 0; i < part.size();) {
      std::size_t end = i;
      while (end < part.size() && part[end] == part[i]) ++end;
      runs.add_n(part[i], end - i);
      for (; i < end; ++i) {
        tally.add_n(part[i], 1);
        recorded.record(part[i]);
      }
    }
    EXPECT_EQ(runs.exact(), tally.exact());
    merged.merge(tally);
    merged_runs.merge(runs);
  }
  const auto got = merged.snapshot();
  const auto want = recorded.snapshot();
  EXPECT_TRUE(snapshots_identical(got, want));
  EXPECT_TRUE(snapshots_identical(merged_runs.snapshot(), want));
  return got;
}

TEST(HistogramTally, MergeMatchesOneRecordPerValue) {
  Rng rng(21);
  for (const std::size_t distinct :
       {std::size_t{1}, std::size_t{5}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{200}, std::size_t{3000}}) {
    const auto values = multiset(rng, distinct, 4 * distinct + 50, 0, 1 << 24);
    HistogramTally tally;
    for (const auto v : values) tally.add_n(v, 1);
    EXPECT_EQ(tally.exact(), distinct <= kExactCapacity) << distinct;
    const auto snap = expect_merge_matches_records({}, {values});
    EXPECT_EQ(snap.exact, distinct <= kExactCapacity) << distinct;
    EXPECT_EQ(snap.count, values.size());
    // Sorted, every distinct value is one run of add_n.
    auto sorted = values;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(expect_merge_matches_records({}, {sorted}).exact, distinct <= kExactCapacity);
  }
  // An empty tally publishes nothing.
  const auto empty =
      expect_merge_matches_records({}, std::vector<std::vector<std::int64_t>>(1));
  EXPECT_EQ(empty.count, 0u);
  EXPECT_TRUE(empty.exact);
}

TEST(HistogramTally, CountsDistinctValuesAfterClamping) {
  // Every negative value clamps to 0 and every value >= 2^42 to
  // kMaxTrackable, as in the histogram's tracker; min, max and sum stay raw.
  Rng rng(22);
  std::vector<std::int64_t> negatives;
  std::vector<std::int64_t> huge;
  for (std::int64_t i = 1; i <= 100; ++i) {
    negatives.push_back(-i * 977);
    huge.push_back(kMaxTrackable + i * 1'000'003);
  }
  auto snap = expect_merge_matches_records({}, {negatives});
  EXPECT_TRUE(snap.exact);  // 100 raw values, one clamped value
  EXPECT_EQ(snap.min, -100 * 977);
  EXPECT_EQ(snap.max, -977);
  snap = expect_merge_matches_records({}, {huge});
  EXPECT_TRUE(snap.exact);
  EXPECT_EQ(snap.max, kMaxTrackable + 100 * 1'000'003);

  // 62 in-range values plus both clamp targets make 64 distinct: exact.
  auto mixed = multiset(rng, 62, 300, 1, 1 << 20);
  mixed.insert(mixed.end(), negatives.begin(), negatives.end());
  mixed.insert(mixed.end(), huge.begin(), huge.end());
  rng.shuffle(mixed);
  EXPECT_TRUE(expect_merge_matches_records({}, {mixed}).exact);
  // One more in-range value makes 65: the tally falls back to buckets.
  mixed.push_back((1 << 20) + 7);
  EXPECT_FALSE(expect_merge_matches_records({}, {mixed}).exact);
}

TEST(HistogramTally, AddNRunsMatchRepeatedAdds) {
  // The 65th distinct value arrives as a run: the tally moves to its
  // buckets with all of the run's observations.
  std::vector<std::int64_t> part;
  for (std::int64_t v = 1; v <= 64; ++v) part.push_back(v * 1000);
  part.insert(part.end(), 5, 65 * 1000);
  part.insert(part.end(), 3, 7 * 1000);  // a repeat run, now in the buckets
  auto snap = expect_merge_matches_records({}, {part});
  EXPECT_FALSE(snap.exact);
  EXPECT_EQ(snap.count, 64u + 5u + 3u);

  // v·n past 2^64: the sum wraps, as n records' sum does.
  const std::int64_t big = std::numeric_limits<std::int64_t>::max() / 3;
  snap = expect_merge_matches_records({}, {std::vector<std::int64_t>(7, big)});
  EXPECT_EQ(snap.sum, static_cast<std::int64_t>(static_cast<std::uint64_t>(big) * 7u));
  EXPECT_EQ(snap.min, big);
  EXPECT_EQ(snap.max, big);
  EXPECT_TRUE(snap.exact);

  // A run of no observations adds nothing.
  HistogramTally tally;
  tally.add_n(12345, 0);
  LatencyHistogram h;
  h.merge(tally);
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_TRUE(tally.exact());
}

TEST(HistogramTally, TwoTalliesMergeIntoOneHistogram) {
  Rng rng(23);
  const auto low = multiset(rng, 40, 200, 0, 1000);
  const auto high = multiset(rng, 40, 200, 5000, 1000);
  // 80 distinct over the two: neither tally overflows, the histogram does.
  EXPECT_FALSE(expect_merge_matches_records({}, {low, high}).exact);
  // The same 40 values twice stay exact.
  EXPECT_TRUE(expect_merge_matches_records({}, {low, low}).exact);
  // An overflowed tally next to an exact one.
  const auto wide = multiset(rng, 500, 2000, 0, 1 << 30);
  EXPECT_FALSE(expect_merge_matches_records({}, {low, wide}).exact);
  EXPECT_FALSE(expect_merge_matches_records({}, {wide, low}).exact);
}

TEST(HistogramTally, MergeIntoAHistogramThatHoldsValues) {
  Rng rng(24);
  const auto held = multiset(rng, 30, 100, 0, 1000);
  const auto more = multiset(rng, 30, 100, 2000, 1000);
  const auto most = multiset(rng, 40, 100, 4000, 1000);
  EXPECT_TRUE(expect_merge_matches_records(held, {more}).exact);   // 60 distinct
  EXPECT_FALSE(expect_merge_matches_records(held, {most, more}).exact);  // 100
  // A histogram that already overflowed stays overflowed.
  const auto wide = multiset(rng, 100, 300, -500, 1 << 16);
  EXPECT_FALSE(expect_merge_matches_records(wide, {held}).exact);
  // Negative and huge values in both the histogram and the tally.
  const std::vector<std::int64_t> mixed = {-3, kMaxTrackable + 9, 7};
  EXPECT_TRUE(expect_merge_matches_records({-1, -2, kMaxTrackable + 5}, {mixed}).exact);
}

TEST(MetricRegistry, ConcurrentMixedRecordingIsComplete) {
  // Many threads hammering the same named instruments through the registry
  // (the TSan-relevant path: lookups + sharded writes).
  MetricRegistry reg;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      auto& c = reg.counter("stress.counter");
      auto& h = reg.histogram("stress.hist");
      auto& g = reg.gauge("stress.gauge");
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.inc();
        h.record(static_cast<std::int64_t>(i % 7));
        g.add(i % 2 == 0 ? 1 : -1);
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto snap = reg.snapshot();
  const auto* c = snap.find_counter("stress.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, kThreads * kPerThread);
  const auto* h = snap.find_histogram("stress.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, kThreads * kPerThread);
  ASSERT_TRUE(h->exact);
  ASSERT_EQ(h->values.size(), 7u);
  for (const auto& [value, count] : h->values) {
    // i % 7 over 0..19999 per thread: 20000 = 7·2857 + 1, so value 0
    // appears 2858 times and 1..6 appear 2857 — times kThreads.
    EXPECT_EQ(count, (value == 0 ? 2858u : 2857u) * kThreads) << value;
  }
}

TEST(MetricRegistry, LabelsDistinguishInstrumentsAndFamiliesSum) {
  MetricRegistry reg;
  reg.counter("family.requests", "device=\"0\"").inc(3);
  reg.counter("family.requests", "device=\"1\"").inc(5);
  reg.counter("family.other").inc(11);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter_family_total("family.requests"), 8u);
  const auto* d1 = snap.find_counter("family.requests", "device=\"1\"");
  ASSERT_NE(d1, nullptr);
  EXPECT_EQ(d1->value, 5u);
  EXPECT_EQ(snap.find_counter("family.requests"), nullptr);  // label required
}

// ---------------------------------------------------------------------------
// Tracer

TEST(Tracer, RingWrapsOldestFirstAndCountsDropped) {
  Tracer tracer(8);
  tracer.set_enabled(true);
  for (std::int64_t i = 0; i < 12; ++i) {
    tracer.record({.request = i,
                   .start = i * 10,
                   .end = i * 10 + 5,
                   .value = 0,
                   .device = -1,
                   .kind = EventKind::kArrival,
                   .detail = EventDetail::kNone});
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(tracer.dropped(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].request, static_cast<std::int64_t>(i + 4));
  }
  tracer.clear();
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, RingIsAllocatedOnFirstEnable) {
  // A tracer that was never enabled holds no ring, and reads as empty.
  Tracer tracer(8);
  tracer.record({.request = 1});
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
  tracer.clear();
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
  // Once enabled it holds its capacity: capacity + 2 records drop 2.
  tracer.set_enabled(true);
  for (std::int64_t i = 0; i < 8 + 2; ++i) tracer.record({.request = i});
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(tracer.dropped(), 2u);
  EXPECT_EQ(events.front().request, 2);
  EXPECT_EQ(events.back().request, 9);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer(8);
  tracer.record({.request = 1});
  EXPECT_TRUE(tracer.events().empty());
  tracer.set_enabled(true);
  tracer.record({.request = 2});
  EXPECT_EQ(tracer.events().size(), 1u);
}

// ---------------------------------------------------------------------------
// Exporters

MetricsSnapshot sample_snapshot() {
  MetricRegistry reg;
  reg.counter("demo.requests", "device=\"0\"").inc(7);
  reg.counter("demo.requests", "device=\"1\"").inc(9);
  reg.gauge("demo.depth").add(4);
  auto& h = reg.histogram("demo.latency_ns");
  h.record(132507);
  h.record(132507);
  h.record(265014);
  return reg.snapshot();
}

TEST(Export, PrometheusFormat) {
  const auto text = to_prometheus(sample_snapshot());
  EXPECT_NE(text.find("# TYPE flashqos_demo_requests_total counter\n"),
            std::string::npos);
  // One TYPE line per family even with several label sets.
  EXPECT_EQ(text.find("# TYPE flashqos_demo_requests_total counter"),
            text.rfind("# TYPE flashqos_demo_requests_total counter"));
  EXPECT_NE(text.find("flashqos_demo_requests_total{device=\"1\"} 9\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE flashqos_demo_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("flashqos_demo_latency_ns_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("flashqos_demo_latency_ns_sum 530028\n"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.50\"} 132507\n"), std::string::npos);
}

TEST(Export, CsvFormat) {
  const auto text = to_csv(sample_snapshot());
  EXPECT_EQ(text.rfind("kind,name,labels,stat,value\n", 0), 0u);
  EXPECT_NE(text.find("counter,demo.requests,\"device=\"\"1\"\"\",value,9\n"),
            std::string::npos);
  EXPECT_NE(text.find("histogram,demo.latency_ns,,count,3\n"),
            std::string::npos);
  EXPECT_NE(text.find("histogram,demo.latency_ns,,p50,132507\n"),
            std::string::npos);
  EXPECT_NE(text.find("histogram,demo.latency_ns,,exact,1\n"),
            std::string::npos);
}

TEST(Export, CsvEscapesCommasQuotesAndNewlines) {
  // RFC 4180: any cell holding a comma, quote, or line break is wrapped in
  // quotes with embedded quotes doubled — a label like tenant="a,b" must
  // survive a round trip through a CSV reader as ONE cell.
  MetricRegistry reg;
  reg.counter("demo.requests", "tenant=\"a,b\"").inc(3);
  reg.gauge("demo.depth", "note=\"line1\nline2\"").add(5);
  const auto text = to_csv(reg.snapshot());
  EXPECT_NE(
      text.find("counter,demo.requests,\"tenant=\"\"a,b\"\"\",value,3\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("gauge,demo.depth,\"note=\"\"line1\nline2\"\"\",value,5\n"),
      std::string::npos);
  // Every row outside a quoted cell still has the fixed column count.
  std::size_t col_commas = 0;
  bool quoted = false;
  std::size_t rows = 0;
  std::size_t bad_rows = 0;
  for (const char c : text) {
    if (c == '"') quoted = !quoted;
    if (c == ',' && !quoted) ++col_commas;
    if (c == '\n' && !quoted) {
      ++rows;
      if (col_commas != 4) ++bad_rows;
      col_commas = 0;
    }
  }
  EXPECT_EQ(rows, 3u);  // header + two instruments
  EXPECT_EQ(bad_rows, 0u);
}

TEST(Export, ChromeTraceFormat) {
  std::vector<TraceEvent> events;
  events.push_back({.request = 0,
                    .start = 1000,
                    .end = 1000,
                    .value = 0,
                    .device = -1,
                    .kind = EventKind::kArrival,
                    .detail = EventDetail::kNone});
  events.push_back({.request = 0,
                    .start = 1500,
                    .end = 1500,
                    .value = 250,
                    .device = -1,
                    .kind = EventKind::kAdmission,
                    .detail = EventDetail::kAdmitted});
  events.push_back({.request = 0,
                    .start = 1500,
                    .end = 134007,
                    .value = 1,
                    .device = 3,
                    .kind = EventKind::kRetrieval,
                    .detail = EventDetail::kSlotMatched});
  events.push_back({.request = 0,
                    .start = 1500,
                    .end = 134007,
                    .value = 0,
                    .device = 3,
                    .kind = EventKind::kDeviceService,
                    .detail = EventDetail::kNone});
  const auto json = to_chrome_trace(events);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');  // trailing newline after the array
  // Device track metadata, the async request span, and the service slice.
  EXPECT_NE(json.find(R"("name":"device 3")"), std::string::npos);
  EXPECT_NE(json.find(R"("ph":"b")"), std::string::npos);
  EXPECT_NE(json.find(R"("ph":"e")"), std::string::npos);
  EXPECT_NE(json.find(R"("ph":"X")"), std::string::npos);
  EXPECT_NE(json.find(R"("verdict":"admitted")"), std::string::npos);
  EXPECT_NE(json.find(R"("path":"slot_matched")"), std::string::npos);
  // Fractional-microsecond timestamps: 1500 ns -> 1.500 us.
  EXPECT_NE(json.find(R"("ts":1.500)"), std::string::npos);
}

TEST(Export, WriteMetricsPicksFormatFromExtension) {
  const auto snap = sample_snapshot();
  const std::string dir = ::testing::TempDir();
  const std::string prom_path = dir + "/obs_test_metrics.prom";
  const std::string csv_path = dir + "/obs_test_metrics.csv";
  ASSERT_TRUE(write_metrics(snap, prom_path));
  ASSERT_TRUE(write_metrics(snap, csv_path));
  std::ifstream prom(prom_path);
  std::string first;
  std::getline(prom, first);
  EXPECT_EQ(first.rfind("# TYPE", 0), 0u);
  std::ifstream csv(csv_path);
  std::getline(csv, first);
  EXPECT_EQ(first, "kind,name,labels,stat,value");
}

// ---------------------------------------------------------------------------
// Pipeline-driven consistency (compiled out with FLASHQOS_OBS=OFF)

TEST(PipelineObservability, CountersMatchReplayOutcomes) {
  if constexpr (!kEnabled) {
    GTEST_SKIP() << "FLASHQOS_OBS=OFF";
  } else {
    auto& reg = MetricRegistry::global();
    reg.reset();
    const auto d = design::make_9_3_1();
    const decluster::DesignTheoretic scheme(d, true);
    trace::SyntheticParams sp;
    sp.bucket_pool = scheme.buckets();
    sp.requests_per_interval = 4;
    sp.total_requests = 1000;
    const auto t = trace::generate_synthetic(sp);
    const auto result =
        core::QosPipeline(scheme, core::PipelineConfig{}).run(t);
    const auto snap = reg.snapshot();
    const auto* requests = snap.find_counter("pipeline.requests");
    ASSERT_NE(requests, nullptr);
    EXPECT_EQ(requests->value, result.outcomes.size());
    const auto* resp = snap.find_histogram("pipeline.response_ns");
    ASSERT_NE(resp, nullptr);
    const auto* reads = snap.find_counter("pipeline.reads_served");
    ASSERT_NE(reads, nullptr);
    EXPECT_EQ(resp->count, reads->value);
    // Every read is one device op: the engine's per-device op counters
    // sum to its submits, which equal the reads served (no writes here).
    const auto* submits = snap.find_counter("flashsim.submits");
    ASSERT_NE(submits, nullptr);
    EXPECT_EQ(submits->value, reads->value);
    EXPECT_GT(submits->value, 0u);
    EXPECT_EQ(snap.counter_family_total("flashsim.device.requests"),
              submits->value);
    reg.reset();
  }
}

}  // namespace
}  // namespace flashqos::obs
