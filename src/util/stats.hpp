// Streaming statistics accumulators and percentile helpers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "util/expect.hpp"

namespace flashqos {

/// Single-pass accumulator for count / mean / stddev / min / max using
/// Welford's algorithm (numerically stable for long runs).
class Accumulator {
 public:
  void add(double x) noexcept {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  void merge(const Accumulator& other) noexcept {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    const auto na = static_cast<double>(count_);
    const auto nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double n = na + nb;
    m2_ += other.m2_ + delta * delta * na * nb / n;
    mean_ = (na * mean_ + nb * other.mean_) / n;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Percentile of a sample set (linear interpolation between order
/// statistics, the "exclusive" convention). `q` in [0, 1]. Sorts a copy.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// In-place variant for repeated queries on the same (pre-sorted) data.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted, double q);

}  // namespace flashqos
