#include "util/stats.hpp"

namespace flashqos {

double percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, q);
}

double percentile_sorted(const std::vector<double>& sorted, double q) {
  FLASHQOS_EXPECT(!sorted.empty(), "percentile of an empty sample set");
  FLASHQOS_EXPECT(q >= 0.0 && q <= 1.0, "percentile rank must be in [0,1]");
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

}  // namespace flashqos
