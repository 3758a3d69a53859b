// Observability: thread-safe, low-overhead metric registry.
//
// The paper's claims are about *distributions* — worst-case response
// bounds, miss probability Q vs ε, balanced load across c replicas — so
// end-of-run aggregates are not enough to explain a run. This registry is
// the substrate the instrumented hot paths (pipeline, retrieval, flashsim,
// the daemon) record into:
//
//  * Counter  — monotone uint64, sharded across kShards cache-line-padded
//    atomic slots; threads pick a slot once (thread-local) and fetch_add
//    relaxed, so an increment is one uncontended RMW in the common case.
//  * Gauge    — like a counter but signed and allowed to go down
//    (queue occupancy, in-flight work).
//  * LatencyHistogram — log-bucketed (HDR-style: 256 exact sub-buckets,
//    then 128 sub-buckets per power of two up to 2^42 ns) PLUS an exact
//    value↦count tracker of bounded size. Simulated latencies take few
//    distinct values (fixed service times), so in practice the exact
//    tracker holds and p50/p95/p99/max are *exact* against a sorted-vector
//    oracle; when a histogram sees more than kExactCapacity distinct values
//    the snapshot falls back to the log buckets (relative error ≤ 2^-8).
//    min/max/sum/count are always exact. One thread records each
//    histogram in practice (the replay or service thread), so it keeps one
//    set of atomics rather than shards.
//  * HistogramTally — a single-writer, plain-integer tally that follows
//    the histogram's rules and is published with LatencyHistogram::merge
//    in one pass; a replay keeps one per histogram so its per-request path
//    makes no atomic RMW.
//
// Snapshots are *deterministic*: counter and gauge shards are summed in
// index order, the exact tracker is sorted by value, and instruments are
// kept in name order — the same recorded multiset yields byte-identical
// snapshots at any thread count. Snapshots may be taken concurrently with
// writers (relaxed reads; a snapshot is then a consistent-enough live
// view); exact identities are only guaranteed at quiescence.
//
// Counter/Gauge/MetricRegistry are templates over a sync policy
// (util/sync.hpp); production code uses the un-suffixed aliases
// (StdSyncPolicy — raw std::atomic/std::mutex). The model checker
// (src/check) instantiates the same templates with ModelSyncPolicy and
// verifies the register+fold protocol over every interleaving — including
// the sharp edge of the relaxed-ordering contract spelled out on
// BasicCounter below.
//
// Instrumentation call sites compile to nothing when the project is
// configured with -DFLASHQOS_OBS=OFF: guard them with
// `if constexpr (obs::kEnabled)`. The registry itself stays functional in
// both modes (its unit tests and the exporters do not depend on the flag).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/annotations.hpp"
#include "util/sync.hpp"

#ifndef FLASHQOS_OBS_ENABLED
#define FLASHQOS_OBS_ENABLED 1
#endif

namespace flashqos::obs {

/// True when instrumentation call sites are compiled in (FLASHQOS_OBS=ON,
/// the default). `if constexpr (obs::kEnabled)` is the gate every
/// instrumented hot path uses.
inline constexpr bool kEnabled = FLASHQOS_OBS_ENABLED != 0;

/// Number of shards per counter or gauge. Threads hash onto shards;
/// collisions are correct (slots are atomic), they only cost contention.
inline constexpr std::size_t kShards = 8;

// The whole sharded-slot design presumes a plain lock-free RMW per event;
// if uint64 atomics ever needed a lock on a target, the "one uncontended
// fetch_add" cost model (and the signal-safety of inc()) would be gone.
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "sharded counters require lock-free 64-bit atomics");

namespace detail {
template <typename Sync, typename V>
struct alignas(64) PaddedSlot {
  typename Sync::template Atomic<V> v{0};
};
}  // namespace detail

/// Monotone event counter.
///
/// Ordering contract (verified by check::models — "metrics registry
/// fold determinism"): slot increments are RELAXED atomic RMWs and the
/// fold in value() reads RELAXED. Relaxed RMWs never lose increments
/// (read-modify-write atomicity is unconditional), so value() is always a
/// sum of *some* prefix of each thread's increments — monotone, never
/// garbage. But relaxed operations publish no happens-before edge, so a
/// fold is only guaranteed to equal the full recorded total when every
/// inc() happens-before the value() call through some EXTERNAL
/// synchronization edge — in this codebase always a thread join or a
/// HandoffQueue pop of the producer's last batch. A fold without such an
/// edge is a legitimate *live* read (monitoring exporters use it), not an
/// exact total, and code asserting exact counts off a concurrent fold is
/// wrong even on x86. The model checker enforces the distinction
/// mechanically: the modeled fold-after-join digest is schedule-invariant,
/// while a fold racing an inc() is flagged if any plain state piggybacks
/// on it.
template <typename Sync>
class BasicCounter {
 public:
  void inc(std::uint64_t n = 1) {
    shards_[Sync::thread_index() % kShards].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Deterministic fold: slots summed in index order.
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::PaddedSlot<Sync, std::uint64_t>, kShards> shards_{};
};

/// Signed up/down counter (occupancy-style; value() is the net sum).
/// Same relaxed-ordering contract as BasicCounter.
template <typename Sync>
class BasicGauge {
 public:
  void add(std::int64_t delta) {
    shards_[Sync::thread_index() % kShards].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void inc() { add(1); }
  void dec() { add(-1); }

  [[nodiscard]] std::int64_t value() const {
    std::int64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::PaddedSlot<Sync, std::int64_t>, kShards> shards_{};
};

using Counter = BasicCounter<util::StdSyncPolicy>;
using Gauge = BasicGauge<util::StdSyncPolicy>;

// ---------------------------------------------------------------------------
// Log-bucket layout (HDR-style): values in [0, 256) map to unit-width
// buckets; a value with most-significant bit m >= 8 maps into 128
// sub-buckets of width 2^(m-7) covering [2^m, 2^(m+1)). Values at or above
// 2^42 ns (~73 simulated minutes) clamp to the top bucket (min/max/sum stay
// exact). Worst-case relative quantile error in bucket fallback: 2^-8.

inline constexpr int kSubBucketBits = 8;
inline constexpr std::size_t kSubBucketCount = std::size_t{1} << kSubBucketBits;
inline constexpr int kMaxValueBits = 42;
inline constexpr std::int64_t kMaxTrackable =
    (std::int64_t{1} << kMaxValueBits) - 1;
inline constexpr std::size_t kBucketEntries =
    kSubBucketCount +
    static_cast<std::size_t>(kMaxValueBits - kSubBucketBits) * (kSubBucketCount / 2);

/// Bucket index of a value in [0, kMaxTrackable].
[[nodiscard]] constexpr std::size_t bucket_index(std::int64_t v) noexcept {
  const auto u = static_cast<std::uint64_t>(v);
  if (u < kSubBucketCount) return static_cast<std::size_t>(u);
  const int msb = 63 - std::countl_zero(u);
  const int shift = msb - (kSubBucketBits - 1);
  const auto sub = static_cast<std::size_t>(u >> shift);  // [128, 256)
  return kSubBucketCount +
         static_cast<std::size_t>(msb - kSubBucketBits) * (kSubBucketCount / 2) +
         (sub - kSubBucketCount / 2);
}

/// Lowest value mapping to bucket `idx` (the quantile representative).
[[nodiscard]] constexpr std::int64_t bucket_lo(std::size_t idx) noexcept {
  if (idx < kSubBucketCount) return static_cast<std::int64_t>(idx);
  const std::size_t rel = idx - kSubBucketCount;
  const auto major = static_cast<int>(rel / (kSubBucketCount / 2));
  const std::size_t sub = rel % (kSubBucketCount / 2) + kSubBucketCount / 2;
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(sub)
                                   << (major + 1));
}

/// One past the highest value mapping to bucket `idx`.
[[nodiscard]] constexpr std::int64_t bucket_hi(std::size_t idx) noexcept {
  return idx + 1 < kBucketEntries ? bucket_lo(idx + 1) : kMaxTrackable + 1;
}

/// Distinct values a histogram's exact tracker holds before falling back
/// to buckets. Power of two: probe sequences wrap with a mask.
inline constexpr std::size_t kExactCapacity = 64;

/// Preferred tracker slot for a value (SplitMix64 finalizer). Probing
/// starts here and wraps, so a lookup touches ~1 slot regardless of how
/// many distinct values the tracker already holds.
[[nodiscard]] constexpr std::size_t exact_slot_hint(std::int64_t v) noexcept {
  auto x = static_cast<std::uint64_t>(v);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x) & (kExactCapacity - 1);
}

struct HistogramBucket {
  std::int64_t lo = 0;  // inclusive
  std::int64_t hi = 0;  // exclusive
  std::uint64_t count = 0;
};

/// Deterministic point-in-time view of one histogram.
struct HistogramSnapshot {
  std::string name;
  std::string labels;
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;  // exact (0 when empty)
  std::int64_t max = 0;  // exact (0 when empty)
  /// True when the exact tracker held: `values` is the complete value↦count
  /// multiset and percentiles are exact.
  bool exact = false;
  std::vector<std::pair<std::int64_t, std::uint64_t>> values;  // sorted by value
  std::vector<HistogramBucket> buckets;                        // non-zero only

  /// Nearest-rank percentile, q in [0, 1]: the smallest recorded value
  /// whose cumulative count reaches ceil(q·count). Exact when `exact`;
  /// otherwise the containing bucket's lower bound (relative error ≤ 2^-8).
  [[nodiscard]] std::int64_t percentile(double q) const;
};

/// A single-writer tally of one histogram's observations, published with
/// LatencyHistogram::merge. It mirrors the histogram's rules, so the merge
/// leaves the histogram exactly as one record() per added value would:
///  * count, sum, min and max are exact over the raw values;
///  * while at most kExactCapacity distinct *clamped* values (the tracker's
///    notion of distinct: every negative value is 0) have been added, they
///    sit in an open-addressed value→count table probed from
///    exact_slot_hint — one probe for a repeat value;
///  * the next distinct value allocates a plain copy of the bucket layout
///    (kBucketEntries counts, 36 KiB) and folds the table into it; from then
///    on an add is one bucket_index and plain increments.
/// Plain integers, no atomics: one thread adds, and the tally is merged
/// only once that thread is done with it.
class HistogramTally {
 public:
  /// `n` observations of `v` in one pass, as `n` calls with n = 1 would
  /// leave the tally (n == 0 adds nothing).
  void add_n(std::int64_t v, std::uint64_t n) {
    if (n == 0) return;
    count_ += n;
    sum_ += static_cast<std::uint64_t>(v) * n;  // wraps as the histogram's sum does
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    const std::int64_t clamped = std::clamp<std::int64_t>(v, 0, kMaxTrackable);
    if (buckets_ != nullptr) {
      buckets_[bucket_index(clamped)] += n;
      return;
    }
    std::size_t slot = exact_slot_hint(clamped);
    for (std::size_t probe = 0; probe < kExactCapacity; ++probe) {
      if (keys_[slot] == clamped) {
        counts_[slot] += n;
        return;
      }
      if (keys_[slot] == kEmptyKey) {
        keys_[slot] = clamped;
        counts_[slot] = n;
        return;
      }
      slot = (slot + 1) & (kExactCapacity - 1);
    }
    overflow(clamped, n);
  }

  /// True while the value→count table holds every distinct value.
  [[nodiscard]] bool exact() const noexcept { return buckets_ == nullptr; }

 private:
  friend class LatencyHistogram;

  static constexpr std::int64_t kEmptyKey = -1;  // clamped values are >= 0

  /// `n` of the distinct value past kExactCapacity: move to the buckets
  /// (once).
  void overflow(std::int64_t clamped, std::uint64_t n);

  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::int64_t min_ = INT64_MAX;
  std::int64_t max_ = INT64_MIN;
  std::array<std::int64_t, kExactCapacity> keys_ = [] {
    std::array<std::int64_t, kExactCapacity> keys{};
    keys.fill(kEmptyKey);
    return keys;
  }();
  std::array<std::uint64_t, kExactCapacity> counts_{};
  std::unique_ptr<std::uint64_t[]> buckets_;  // kBucketEntries; null while exact
};

/// Log-bucketed latency histogram with an exact bounded value tracker.
/// record() is wait-free: count/sum/bucket fetch_adds plus a bounded scan
/// of the exact slots. Any thread may record; every recorder shares the
/// one set of atomics.
///
/// Deliberately NOT sync-policy-templated: its lock-free probe/CAS guts
/// are checked by TSan + stress tests, and modeling every bucket slot
/// would blow up the model checker's state space for no protocol insight.
/// The modeled registry swaps it for NullHistogram below.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void record(std::int64_t v) noexcept;

  /// Publish a tally in one pass: the histogram ends exactly as one
  /// record() per value added to `tally` would leave it, whatever it
  /// already held (the tracker overflows iff the union of the two
  /// multisets has more than kExactCapacity distinct clamped values).
  void merge(const HistogramTally& tally) noexcept;

  [[nodiscard]] HistogramSnapshot snapshot() const;

  void reset() noexcept;

 private:
  struct ExactSlot {
    std::atomic<std::int64_t> value{kEmptySlot};
    std::atomic<std::uint64_t> count{0};
  };

  static constexpr std::int64_t kEmptySlot = INT64_MIN;

  /// True iff the value landed in the exact tracker.
  bool exact_insert(std::int64_t v, std::uint64_t n) noexcept;
  /// Widen [min_, max_] to cover [lo, hi] (CAS loops).
  void widen(std::int64_t lo, std::int64_t hi) noexcept;
  /// `n` more observations of clamped value `v` in its bucket and, until
  /// the tracker overflows, in the tracker.
  void track(std::int64_t clamped, std::uint64_t n) noexcept;

  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<bool> overflowed_{false};
  std::array<ExactSlot, kExactCapacity> exact_{};
  std::vector<std::atomic<std::uint64_t>> buckets_;  // kBucketEntries
  std::atomic<std::int64_t> min_{INT64_MAX};
  std::atomic<std::int64_t> max_{INT64_MIN};
};

/// Histogram stand-in for registry instantiations that do not exercise
/// latency recording (the model checker's BasicMetricRegistry
/// instantiation uses it to keep the explored state space at protocol
/// granularity).
struct NullHistogram {
  void record(std::int64_t) noexcept {}
  [[nodiscard]] HistogramSnapshot snapshot() const { return {}; }
  void reset() noexcept {}
};

struct CounterSnapshot {
  std::string name;
  std::string labels;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::string labels;
  std::int64_t value = 0;
};

/// Full registry snapshot, instruments in (name, labels) order.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  [[nodiscard]] const CounterSnapshot* find_counter(
      std::string_view name, std::string_view labels = {}) const;
  [[nodiscard]] const HistogramSnapshot* find_histogram(
      std::string_view name, std::string_view labels = {}) const;
  /// Sum of every counter named `name` across all label sets (e.g. the
  /// per-device family flashsim.device.requests).
  [[nodiscard]] std::uint64_t counter_family_total(std::string_view name) const;
};

/// Instrument registry. Instruments are created on first lookup and live
/// for the registry's lifetime, so call sites may cache references.
/// Lookups take a mutex — resolve once (static local / constructor), not
/// per event. `labels` is a pre-formatted Prometheus label body, e.g.
/// `device="3"`.
template <typename Sync, typename Histogram = LatencyHistogram>
class BasicMetricRegistry {
 public:
  BasicMetricRegistry() = default;
  BasicMetricRegistry(const BasicMetricRegistry&) = delete;
  BasicMetricRegistry& operator=(const BasicMetricRegistry&) = delete;

  /// The process-wide registry every built-in instrumentation site uses.
  /// Intentionally leaked so handles cached in static storage stay valid
  /// through shutdown.
  [[nodiscard]] static BasicMetricRegistry& global() {
    static auto* registry = new BasicMetricRegistry();
    return *registry;
  }

  [[nodiscard]] BasicCounter<Sync>& counter(std::string_view name,
                                            std::string_view labels = {}) {
    const typename Sync::LockGuard lock(mutex_);
    auto& slot = counters_.rw()[Key{std::string(name), std::string(labels)}];
    if (!slot) slot = std::make_unique<BasicCounter<Sync>>();
    return *slot;
  }

  [[nodiscard]] BasicGauge<Sync>& gauge(std::string_view name,
                                        std::string_view labels = {}) {
    const typename Sync::LockGuard lock(mutex_);
    auto& slot = gauges_.rw()[Key{std::string(name), std::string(labels)}];
    if (!slot) slot = std::make_unique<BasicGauge<Sync>>();
    return *slot;
  }

  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::string_view labels = {}) {
    const typename Sync::LockGuard lock(mutex_);
    auto& slot = histograms_.rw()[Key{std::string(name), std::string(labels)}];
    if (!slot) slot = std::make_unique<Histogram>();
    return *slot;
  }

  [[nodiscard]] MetricsSnapshot snapshot() const {
    const typename Sync::LockGuard lock(mutex_);
    MetricsSnapshot snap;
    snap.counters.reserve(counters_.rd().size());
    for (const auto& [key, counter] : counters_.rd()) {
      snap.counters.push_back({key.first, key.second, counter->value()});
    }
    snap.gauges.reserve(gauges_.rd().size());
    for (const auto& [key, gauge] : gauges_.rd()) {
      snap.gauges.push_back({key.first, key.second, gauge->value()});
    }
    snap.histograms.reserve(histograms_.rd().size());
    for (const auto& [key, hist] : histograms_.rd()) {
      HistogramSnapshot h = hist->snapshot();
      h.name = key.first;
      h.labels = key.second;
      snap.histograms.push_back(std::move(h));
    }
    return snap;
  }

  /// Zero every instrument in place (handles stay valid). Callers must be
  /// quiescent — no concurrent writers; meant for tests and the verifier.
  void reset() {
    const typename Sync::LockGuard lock(mutex_);
    for (auto& [key, counter] : counters_.rw()) counter->reset();
    for (auto& [key, gauge] : gauges_.rw()) gauge->reset();
    for (auto& [key, hist] : histograms_.rw()) hist->reset();
  }

 private:
  using Key = std::pair<std::string, std::string>;  // (name, labels)

  mutable typename Sync::Mutex mutex_;
  typename Sync::template Shared<
      std::map<Key, std::unique_ptr<BasicCounter<Sync>>>>
      counters_ FLASHQOS_GUARDED_BY(mutex_);
  typename Sync::template Shared<
      std::map<Key, std::unique_ptr<BasicGauge<Sync>>>>
      gauges_ FLASHQOS_GUARDED_BY(mutex_);
  typename Sync::template Shared<std::map<Key, std::unique_ptr<Histogram>>>
      histograms_ FLASHQOS_GUARDED_BY(mutex_);
};

using MetricRegistry = BasicMetricRegistry<util::StdSyncPolicy>;

}  // namespace flashqos::obs
