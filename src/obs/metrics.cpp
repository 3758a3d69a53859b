#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace flashqos::obs {

// --- HistogramTally --------------------------------------------------------

void HistogramTally::overflow(std::int64_t clamped, std::uint64_t n) {
  buckets_ = std::make_unique<std::uint64_t[]>(kBucketEntries);
  for (std::size_t i = 0; i < kExactCapacity; ++i) {
    buckets_[bucket_index(keys_[i])] += counts_[i];  // the table is full
  }
  buckets_[bucket_index(clamped)] += n;
}

// --- LatencyHistogram ------------------------------------------------------

LatencyHistogram::LatencyHistogram() : buckets_(kBucketEntries) {}

bool LatencyHistogram::exact_insert(std::int64_t v, std::uint64_t n) noexcept {
  // Open-addressed probe starting at the value's hash slot (wrapping). A
  // slot is claimed by CAS-ing value from kEmptySlot; counts are plain
  // fetch_adds. Slots are never released, so a claimed slot's value is
  // immutable and the scan needs no retries beyond the claim CAS itself.
  // Hash-start probing keeps the hot repeat-value path at one load — a
  // linear front-to-back scan would average kExactCapacity/2 probes per
  // record once the tracker fills (measurable on the replay hot path).
  const std::size_t start = exact_slot_hint(v);
  for (std::size_t i = 0; i < kExactCapacity; ++i) {
    auto& slot = exact_[(start + i) & (kExactCapacity - 1)];
    std::int64_t cur = slot.value.load(std::memory_order_acquire);
    if (cur == kEmptySlot) {
      if (slot.value.compare_exchange_strong(cur, v, std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
        slot.count.fetch_add(n, std::memory_order_relaxed);
        return true;
      }
      // Lost the race; `cur` now holds the winner's value — fall through.
    }
    if (cur == v) {
      slot.count.fetch_add(n, std::memory_order_relaxed);
      return true;
    }
  }
  return false;  // all slots hold other values
}

void LatencyHistogram::widen(std::int64_t lo, std::int64_t hi) noexcept {
  std::int64_t seen_min = min_.load(std::memory_order_relaxed);
  while (lo < seen_min &&
         !min_.compare_exchange_weak(seen_min, lo, std::memory_order_relaxed)) {
  }
  std::int64_t seen_max = max_.load(std::memory_order_relaxed);
  while (hi > seen_max &&
         !max_.compare_exchange_weak(seen_max, hi, std::memory_order_relaxed)) {
  }
}

void LatencyHistogram::track(std::int64_t clamped, std::uint64_t n) noexcept {
  buckets_[bucket_index(clamped)].fetch_add(n, std::memory_order_relaxed);
  // Once the tracker has overflowed its values are discarded at snapshot
  // anyway — skip the probe so high-cardinality histograms pay one relaxed
  // load here, not a full-table miss scan per record.
  if (!overflowed_.load(std::memory_order_relaxed) && !exact_insert(clamped, n)) {
    overflowed_.store(true, std::memory_order_relaxed);
  }
}

void LatencyHistogram::record(std::int64_t v) noexcept {
  // Unclamped extrema stay exact even for out-of-range values.
  widen(v, v);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  track(std::clamp<std::int64_t>(v, 0, kMaxTrackable), 1);
}

void LatencyHistogram::merge(const HistogramTally& tally) noexcept {
  if (tally.count_ == 0) return;
  widen(tally.min_, tally.max_);
  count_.fetch_add(tally.count_, std::memory_order_relaxed);
  sum_.fetch_add(static_cast<std::int64_t>(tally.sum_), std::memory_order_relaxed);
  if (tally.buckets_ == nullptr) {
    for (std::size_t i = 0; i < kExactCapacity; ++i) {
      if (tally.keys_[i] != HistogramTally::kEmptyKey) {
        track(tally.keys_[i], tally.counts_[i]);
      }
    }
    return;
  }
  // More than kExactCapacity distinct values: the tracker overflows however
  // the records would have interleaved.
  for (std::size_t i = 0; i < kBucketEntries; ++i) {
    if (tally.buckets_[i] != 0) {
      buckets_[i].fetch_add(tally.buckets_[i], std::memory_order_relaxed);
    }
  }
  overflowed_.store(true, std::memory_order_relaxed);
}

HistogramSnapshot LatencyHistogram::snapshot() const {
  HistogramSnapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);

  // Past kExactCapacity distinct values the tracker holds only the first
  // ones to claim a slot — drop them entirely (percentile() and the
  // exporters use the buckets then), so the snapshot is a function of the
  // recorded multiset alone.
  snap.exact = !overflowed_.load(std::memory_order_relaxed);
  if (snap.exact) {
    for (const auto& slot : exact_) {
      const std::int64_t v = slot.value.load(std::memory_order_acquire);
      if (v == kEmptySlot) continue;  // hash-probed: occupancy is sparse
      const std::uint64_t c = slot.count.load(std::memory_order_relaxed);
      if (c > 0) snap.values.emplace_back(v, c);
    }
    std::sort(snap.values.begin(), snap.values.end());
  }

  for (std::size_t i = 0; i < kBucketEntries; ++i) {
    const std::uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c > 0) snap.buckets.push_back({bucket_lo(i), bucket_hi(i), c});
  }

  const std::int64_t lo = min_.load(std::memory_order_relaxed);
  const std::int64_t hi = max_.load(std::memory_order_relaxed);
  snap.min = snap.count > 0 ? lo : 0;
  snap.max = snap.count > 0 ? hi : 0;
  return snap;
}

void LatencyHistogram::reset() noexcept {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  overflowed_.store(false, std::memory_order_relaxed);
  for (auto& slot : exact_) {
    slot.count.store(0, std::memory_order_relaxed);
    slot.value.store(kEmptySlot, std::memory_order_release);
  }
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  min_.store(INT64_MAX, std::memory_order_relaxed);
  max_.store(INT64_MIN, std::memory_order_relaxed);
}

std::int64_t HistogramSnapshot::percentile(double q) const {
  if (count == 0) return 0;
  const double clamped_q = std::clamp(q, 0.0, 1.0);
  const auto rank = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(
             count, static_cast<std::uint64_t>(
                        std::ceil(clamped_q * static_cast<double>(count)))));
  if (exact) {
    std::uint64_t cum = 0;
    for (const auto& [v, c] : values) {
      cum += c;
      if (cum >= rank) return v;
    }
    return max;
  }
  std::uint64_t cum = 0;
  for (const auto& b : buckets) {
    cum += b.count;
    if (cum >= rank) return b.lo;
  }
  return max;
}

// --- MetricsSnapshot lookups ----------------------------------------------

const CounterSnapshot* MetricsSnapshot::find_counter(
    std::string_view name, std::string_view labels) const {
  for (const auto& c : counters) {
    if (c.name == name && c.labels == labels) return &c;
  }
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::find_histogram(
    std::string_view name, std::string_view labels) const {
  for (const auto& h : histograms) {
    if (h.name == name && h.labels == labels) return &h;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter_family_total(
    std::string_view name) const {
  std::uint64_t total = 0;
  for (const auto& c : counters) {
    if (c.name == name) total += c.value;
  }
  return total;
}

}  // namespace flashqos::obs
