// Unit tests for src/util: rng determinism and distributions, statistics
// accumulators, time conversions, table formatting, contract macros.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/expect.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace flashqos {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(13), 13u);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(5);
  constexpr int kBuckets = 10;
  constexpr int kSamples = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.below(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / kSamples, 2.5, 0.1);
}

TEST(Rng, ZipfRankZeroMostPopular) {
  Rng rng(17);
  constexpr int kSamples = 50000;
  std::vector<int> counts(10, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[rng.zipf(10, 1.0)];
  // With s = 1 the top rank should dominate and counts decay monotonically
  // (allow sampling noise at the tail).
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[4]);
  EXPECT_GT(counts[0], kSamples / 5);
}

TEST(Rng, ZipfZeroExponentIsUniform) {
  Rng rng(19);
  constexpr int kSamples = 50000;
  std::vector<int> counts(5, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[rng.zipf(5, 0.0)];
  for (const int c : counts) EXPECT_NEAR(c, kSamples / 5, kSamples / 5 * 0.1);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(23);
  for (std::size_t k : {0u, 1u, 5u, 50u, 100u}) {
    const auto s = rng.sample_without_replacement(100, k);
    EXPECT_EQ(s.size(), k);
    const std::set<std::size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), k);
    for (const auto v : s) EXPECT_LT(v, 100u);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

// The P_k sampler draws each request size from shard_seed(seed, k), and the
// fault-plan generators split their streams the same way.
TEST(Rng, ShardSeedStreamsAreDistinct) {
  EXPECT_NE(shard_seed(5, 1), shard_seed(5, 2));
  EXPECT_NE(shard_seed(5, 1), shard_seed(6, 1));
}

TEST(Accumulator, BasicMoments) {
  Accumulator a;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_NEAR(a.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Accumulator, EmptyIsZero) {
  const Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.stddev(), 0.0);
}

TEST(Accumulator, MergeMatchesSinglePass) {
  Rng rng(31);
  Accumulator whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform() * 10.0;
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.stddev(), whole.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
}

TEST(Percentile, MedianAndExtremes) {
  const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.5);
}

TEST(Time, RoundTripConversions) {
  EXPECT_EQ(from_ms(0.133), 133 * kMicrosecond);
  EXPECT_DOUBLE_EQ(to_ms(kPageReadLatency), 0.132507);
  EXPECT_EQ(from_us(1.0), kMicrosecond);
  EXPECT_DOUBLE_EQ(to_sec(kSecond), 1.0);
}

TEST(Time, IntervalArithmetic) {
  const SimTime T = 100;
  EXPECT_EQ(interval_index(0, T), 0);
  EXPECT_EQ(interval_index(99, T), 0);
  EXPECT_EQ(interval_index(100, T), 1);
  EXPECT_EQ(next_interval_start(0, T), 0);
  EXPECT_EQ(next_interval_start(1, T), 100);
  EXPECT_EQ(next_interval_start(100, T), 100);
  EXPECT_EQ(next_interval_start(101, T), 200);
}

TEST(Table, FormatsAlignedRows) {
  Table t({"a", "long-header", "c"});
  t.add_row({"1", "2", "3"});
  t.add_row({"wide-cell", "x"});
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::pct(0.1234, 1), "12.3%");
  EXPECT_EQ(Table::ms(0.132507, 3), "0.133 ms");
}

// ------------------------------------------------------- contract macros

TEST(ContractDeathTest, ExpectAbortsWithDiagnostics) {
  EXPECT_DEATH(FLASHQOS_EXPECT(1 + 1 == 3, "arithmetic is broken"),
               "precondition.*1 \\+ 1 == 3.*arithmetic is broken");
}

TEST(ContractDeathTest, ExpectIsSilentWhenSatisfied) {
  FLASHQOS_EXPECT(1 + 1 == 2, "never printed");
  SUCCEED();
}

TEST(ContractDeathTest, AssertFollowsBuildMode) {
#ifdef NDEBUG
  FLASHQOS_ASSERT(false, "compiled out in release builds");
  SUCCEED();
#else
  EXPECT_DEATH(FLASHQOS_ASSERT(false, "debug invariant"),
               "invariant.*debug invariant");
#endif
}

TEST(ContractDeathTest, AssertNeverEvaluatesInRelease) {
  // NDEBUG builds must not even evaluate the condition expression.
  int evaluations = 0;
  const auto probe = [&evaluations] {
    ++evaluations;
    return true;
  };
  FLASHQOS_ASSERT(probe(), "unused");
#ifdef NDEBUG
  (void)probe;
  EXPECT_EQ(evaluations, 0);
#else
  EXPECT_EQ(evaluations, 1);
#endif
}

}  // namespace
}  // namespace flashqos
