// Observability v2: windowed time-series over simulated time.
//
// The registry in metrics.hpp answers "how many / how fast overall"; it
// cannot answer "in WHICH interval did the run breach its bound". The
// paper's guarantees are per-interval promises (any S = (c-1)M² + cM
// requests within M accesses; statistical admission holds Q ≤ ε per
// interval), so the steering quantities — admission verdicts, Q estimates,
// per-tenant usage/shed, per-device load, degraded state — need a
// per-window view. A TimeSeries is exactly that: a fixed-capacity ring of
// aggregate windows keyed by window index (simulated time / width, width
// defaulting to the QoS interval T).
//
// Design points, in the order they matter:
//
//  * Values are int64 and each window keeps {sum, count, min, max,
//    first_time}. Every per-window stat is an associative, commutative
//    merge, so folding thread-local tallies into the shared ring in ANY
//    order yields bit-identical window content — the snapshot identity the
//    stream and daemon oracles enforce. (No "last value" stat:
//    last-writer-wins is order-dependent and would break identity.)
//  * The ring holds `capacity` windows, a power of two; window w lives in
//    slot w % capacity (a mask). A record for a NEWER window evicts the
//    slot's previous occupant; a record for an OLDER window than the
//    occupant is dropped.
//    Either way the slot's final content is the full merge of the records
//    of the highest window ever recorded for that residue class — point
//    content is deterministic at quiescence regardless of arrival order.
//    Only `evicted` (overwrites + late drops) is order-sensitive; it is a
//    memory-pressure diagnostic, never an oracle quantity.
//  * record()/merge() take a plain mutex. Series recording is off the
//    per-request hot path by construction — the replay tallies each window
//    in locals, a rollover buffers one point per series the closed window
//    touched, and each series' buffer merges under one lock
//    (bench/micro_obs_overhead keeps that honest).
//  * Timestamps are SimTime. Wall clocks never appear here (flashqos_lint
//    enforces that for all simulation code).
//
// The registry mirrors BasicMetricRegistry: instruments are created on
// first lookup and live forever (cache the reference), snapshots list
// series in (name, labels) order with points in ascending window order.
// `set_misfold_for_test` is the seeded defect knob the verifier's mutation
// check flips to prove the window-identity oracle can actually fail.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/annotations.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace flashqos::obs {

/// Windows retained per series before the ring starts evicting (a power
/// of two, like every capacity). At the default width (the QoS interval,
/// 133 µs) this is ~136 ms of simulated time — live-monitoring depth,
/// deliberately bounded.
inline constexpr std::size_t kDefaultSeriesCapacity = 1024;

/// One aggregated window of a series.
struct SeriesPoint {
  std::int64_t window = 0;  // index = first_time / width
  std::int64_t sum = 0;
  std::uint64_t count = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  /// Earliest record time seen in this window (min-merged, so
  /// order-independent). SimTime, never a wall clock.
  SimTime first_time = 0;
};

/// Deterministic view of one series: points in ascending window order.
struct SeriesSnapshot {
  std::string name;
  std::string labels;
  SimTime width = 0;
  /// Overwritten slots plus dropped late records. Diagnostic only: the
  /// value depends on record arrival order (point content does not).
  std::uint64_t evicted = 0;
  std::vector<SeriesPoint> points;

  [[nodiscard]] const SeriesPoint* find_window(std::int64_t window) const;
};

/// Full registry snapshot, series in (name, labels) order.
struct TimeSeriesSnapshot {
  std::vector<SeriesSnapshot> series;

  [[nodiscard]] const SeriesSnapshot* find(std::string_view name,
                                           std::string_view labels = {}) const;
};

/// Fixed-capacity ring of aggregate windows. Thread-safe; see file header
/// for the determinism contract.
class TimeSeries {
 public:
  /// `capacity` must be a power of two (the ring is indexed with a mask).
  TimeSeries(SimTime width, std::size_t capacity);
  TimeSeries(const TimeSeries&) = delete;
  TimeSeries& operator=(const TimeSeries&) = delete;

  /// Record one observation at simulated time `at` (>= 0): merged into
  /// window at / width.
  void record(SimTime at, std::int64_t value);

  /// Merge a pre-aggregated tally into `window` in one lock acquisition.
  /// No-op when count == 0.
  void merge(std::int64_t window, SimTime first_time, std::int64_t sum,
             std::uint64_t count, std::int64_t min, std::int64_t max);

  /// Merge pre-aggregated points in order under one lock acquisition —
  /// what the replay's buffered window publish uses. Leaves the series
  /// (points and `evicted`) exactly as one merge() per point would.
  void merge(std::span<const SeriesPoint> points);

  /// Points in ascending window order (name/labels left empty; the
  /// registry fills them).
  [[nodiscard]] SeriesSnapshot snapshot() const;

  void reset();

  [[nodiscard]] SimTime width() const { return width_; }

 private:
  struct Slot {
    std::int64_t window = kEmptyWindow;
    std::int64_t sum = 0;
    std::uint64_t count = 0;
    std::int64_t min = 0;
    std::int64_t max = 0;
    SimTime first_time = 0;
  };

  static constexpr std::int64_t kEmptyWindow =
      std::numeric_limits<std::int64_t>::min();

  void merge_locked(const SeriesPoint& p) FLASHQOS_REQUIRES(mutex_);

  mutable std::mutex mutex_;
  const SimTime width_;
  const std::size_t mask_;  // capacity - 1
  std::vector<Slot> ring_ FLASHQOS_GUARDED_BY(mutex_);
  std::uint64_t evicted_ FLASHQOS_GUARDED_BY(mutex_) = 0;
};

/// Registry of named series. Same shape as BasicMetricRegistry: lookup
/// once and cache the reference; lookups lock, recording locks the series.
class TimeSeriesRegistry {
 public:
  TimeSeriesRegistry() = default;
  TimeSeriesRegistry(const TimeSeriesRegistry&) = delete;
  TimeSeriesRegistry& operator=(const TimeSeriesRegistry&) = delete;

  /// Process-wide registry (intentionally leaked, like the metric
  /// registry, so cached references stay valid through shutdown).
  [[nodiscard]] static TimeSeriesRegistry& global() {
    static auto* registry = new TimeSeriesRegistry();
    return *registry;
  }

  /// Find-or-create. `width`/`capacity` apply only on first creation; a
  /// later lookup with a different width returns the existing series
  /// unchanged.
  [[nodiscard]] TimeSeries& series(
      std::string_view name, std::string_view labels = {},
      SimTime width = kBaseInterval,
      std::size_t capacity = kDefaultSeriesCapacity);

  [[nodiscard]] TimeSeriesSnapshot snapshot() const;

  /// Drop every point in place (instruments stay registered, references
  /// stay valid). Callers must be quiescent, like MetricRegistry::reset.
  void reset();

  /// Seeded defect knob for the verifier's mutation check: when set,
  /// snapshot() mis-folds every point (sum off by one). The window-identity
  /// oracle must detect the divergence; never set outside tests/verify.
  void set_misfold_for_test(bool misfold);

 private:
  using Key = std::pair<std::string, std::string>;  // (name, labels)

  mutable std::mutex mutex_;
  std::map<Key, std::unique_ptr<TimeSeries>> series_ FLASHQOS_GUARDED_BY(mutex_);
  bool misfold_ FLASHQOS_GUARDED_BY(mutex_) = false;
};

}  // namespace flashqos::obs
