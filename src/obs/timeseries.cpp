#include "obs/timeseries.hpp"

#include <algorithm>
#include <bit>

#include "util/expect.hpp"

namespace flashqos::obs {

const SeriesPoint* SeriesSnapshot::find_window(std::int64_t window) const {
  for (const auto& p : points) {
    if (p.window == window) return &p;
  }
  return nullptr;
}

const SeriesSnapshot* TimeSeriesSnapshot::find(std::string_view name,
                                               std::string_view labels) const {
  for (const auto& s : series) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

TimeSeries::TimeSeries(SimTime width, std::size_t capacity)
    : width_(width), mask_(capacity - 1), ring_(capacity) {
  FLASHQOS_EXPECT(width > 0, "time series window width must be positive");
  FLASHQOS_EXPECT(std::has_single_bit(capacity),
                  "time series capacity must be a power of two");
}

void TimeSeries::record(SimTime at, std::int64_t value) {
  FLASHQOS_EXPECT(at >= 0, "time series timestamps are nonnegative SimTime");
  merge(at / width_, at, value, 1, value, value);
}

void TimeSeries::merge(std::int64_t window, SimTime first_time,
                       std::int64_t sum, std::uint64_t count, std::int64_t min,
                       std::int64_t max) {
  const SeriesPoint p{window, sum, count, min, max, first_time};
  merge(std::span<const SeriesPoint>(&p, 1));
}

void TimeSeries::merge(std::span<const SeriesPoint> points) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& p : points) merge_locked(p);
}

void TimeSeries::merge_locked(const SeriesPoint& p) {
  if (p.count == 0) return;
  FLASHQOS_EXPECT(p.window >= 0, "time series windows are nonnegative");
  Slot& slot = ring_[static_cast<std::size_t>(p.window) & mask_];
  if (slot.window == p.window) {
    // Same window: associative/commutative merge, order-independent.
    slot.sum += p.sum;
    slot.count += p.count;
    slot.min = std::min(slot.min, p.min);
    slot.max = std::max(slot.max, p.max);
    slot.first_time = std::min(slot.first_time, p.first_time);
    return;
  }
  if (slot.window != kEmptyWindow && slot.window > p.window) {
    // Late record for a window this residue class has already moved past.
    // Dropping (rather than merging into the newer occupant) keeps point
    // content equal to "full merge of the highest window per residue"
    // regardless of arrival order.
    ++evicted_;
    return;
  }
  if (slot.window != kEmptyWindow) ++evicted_;
  slot.window = p.window;
  slot.sum = p.sum;
  slot.count = p.count;
  slot.min = p.min;
  slot.max = p.max;
  slot.first_time = p.first_time;
}

SeriesSnapshot TimeSeries::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  SeriesSnapshot snap;
  snap.width = width_;
  snap.evicted = evicted_;
  for (const auto& slot : ring_) {
    if (slot.window == kEmptyWindow) continue;
    snap.points.push_back({slot.window, slot.sum, slot.count, slot.min,
                           slot.max, slot.first_time});
  }
  std::sort(snap.points.begin(), snap.points.end(),
            [](const SeriesPoint& a, const SeriesPoint& b) {
              return a.window < b.window;
            });
  return snap;
}

void TimeSeries::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::fill(ring_.begin(), ring_.end(), Slot{});
  evicted_ = 0;
}

TimeSeries& TimeSeriesRegistry::series(std::string_view name,
                                       std::string_view labels, SimTime width,
                                       std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = series_[Key{std::string(name), std::string(labels)}];
  if (!slot) slot = std::make_unique<TimeSeries>(width, capacity);
  return *slot;
}

TimeSeriesSnapshot TimeSeriesRegistry::snapshot() const {
  std::vector<std::pair<const Key*, const TimeSeries*>> entries;
  bool misfold = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    entries.reserve(series_.size());
    for (const auto& [key, series] : series_) {
      entries.emplace_back(&key, series.get());
    }
    misfold = misfold_;
  }
  // std::map iterates in Key order, so the snapshot is already in
  // (name, labels) order — the same deterministic-ordering contract as
  // MetricsSnapshot.
  TimeSeriesSnapshot snap;
  snap.series.reserve(entries.size());
  for (const auto& [key, series] : entries) {
    SeriesSnapshot s = series->snapshot();
    s.name = key->first;
    s.labels = key->second;
    if (misfold) {
      for (auto& p : s.points) p.sum += 1;  // deliberate defect (see header)
    }
    snap.series.push_back(std::move(s));
  }
  return snap;
}

void TimeSeriesRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [key, series] : series_) series->reset();
}

void TimeSeriesRegistry::set_misfold_for_test(bool misfold) {
  const std::lock_guard<std::mutex> lock(mutex_);
  misfold_ = misfold;
}

}  // namespace flashqos::obs
