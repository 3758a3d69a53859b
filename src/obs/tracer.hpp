// Bounded-ring structured event tracer.
//
// Records per-request spans through the pipeline: arrival → admission
// verdict (with the estimated miss probability Q at decision time) →
// retrieval path taken → per-device service intervals. Events are fixed-size
// PODs in a bounded ring; when the ring is full the oldest events are
// overwritten and `dropped()` counts them, so tracing never allocates while
// it records and never blocks the simulation for long.
//
// The tracer is disabled by default, and a tracer that was never enabled
// holds no ring: the first set_enabled(true) allocates it. `record()`
// first does one relaxed load of the enabled flag and returns, so an idle
// tracer costs a branch. Enable it only when a trace is being collected
// (--trace-out).
//
// Timestamps are *simulated* SimTime nanoseconds, not wall clock — a trace
// visualises what the simulated array did, deterministically, so two runs
// of the same trace produce the same event stream.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/annotations.hpp"
#include "util/sync.hpp"
#include "util/time.hpp"

namespace flashqos::obs {

/// What a trace event describes. Values are stable (exported).
enum class EventKind : std::uint8_t {
  kArrival = 0,        // request entered the pipeline
  kAdmission = 1,      // admit/reject/defer verdict; value = Q estimate (ppm)
  kRetrieval = 2,      // retrieval path chosen; value = rounds
  kDeviceService = 3,  // one device busy interval; device/start/end set
  kInterval = 4,       // QoS interval rollover; value = admitted count
  kStage = 5,          // one latency-attribution stage of a request span;
                       // detail names the stage, value = duration (ns)
};

/// Admission verdicts / retrieval paths / attribution stages, packed into
/// TraceEvent::detail.
enum class EventDetail : std::uint8_t {
  kNone = 0,
  // kAdmission
  kAdmitted = 1,
  kRejected = 2,
  kDeferred = 3,
  // kRetrieval
  kPrimary = 4,       // single-replica read, no scheduling needed
  kDtrFastPath = 5,   // DTR schedule already optimal
  kMaxFlowFallback = 6,
  kDegraded = 7,      // retrieval under device failure
  kWrite = 8,         // write fan-out to all replicas
  kSlotMatched = 9,   // online deterministic slot matching
  kSurplus = 10,      // online statistical surplus / overflow
  // kStage — the request span ingress → WFQ queue/admission → retrieval
  // scheduling → device service, cut at the outcome's recorded timestamps
  kStageQueue = 11,     // arrival → dispatch (WFQ queue + admission wait)
  kStageSchedule = 12,  // dispatch → first device access (retrieval path)
  kStageService = 13,   // first device access → completion
};

[[nodiscard]] std::string_view to_string(EventKind kind) noexcept;
[[nodiscard]] std::string_view to_string(EventDetail detail) noexcept;

/// One fixed-size trace record. `start`/`end` are SimTime (ns).
struct TraceEvent {
  std::int64_t request = -1;  // request index within the run (-1: not bound)
  SimTime start = 0;
  SimTime end = 0;            // == start for instant events
  std::int64_t value = 0;     // kind-specific payload (Q in ppm, rounds, ...)
  std::int32_t device = -1;   // kDeviceService only
  EventKind kind = EventKind::kArrival;
  EventDetail detail = EventDetail::kNone;
};

/// Bounded ring of TraceEvents. Thread-safe; writers take a mutex (the
/// disabled fast path does not).
class Tracer {
 public:
  /// Holds up to `capacity` events (at least 1) once first enabled.
  explicit Tracer(std::size_t capacity = 1 << 16);

  /// Record an event if tracing is enabled; otherwise a relaxed load + ret.
  void record(const TraceEvent& event);

  /// The first enable allocates the ring (and may throw std::bad_alloc).
  void set_enabled(bool enabled);
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Events recorded but overwritten because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Retained events, oldest first. Does not clear.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Drop all retained events and reset the dropped counter.
  void clear();

  /// Process-wide tracer used by built-in instrumentation sites
  /// (intentionally leaked, like MetricRegistry::global()).
  [[nodiscard]] static Tracer& global();

 private:
  std::atomic<bool> enabled_{false};
  const std::size_t capacity_;
  mutable util::Mutex mutex_;
  std::vector<TraceEvent> ring_ FLASHQOS_GUARDED_BY(mutex_);  // empty until enabled
  std::size_t head_ FLASHQOS_GUARDED_BY(mutex_) = 0;  // next write position
  std::size_t size_ FLASHQOS_GUARDED_BY(mutex_) = 0;  // retained (≤ capacity)
  std::uint64_t dropped_ FLASHQOS_GUARDED_BY(mutex_) = 0;
};

}  // namespace flashqos::obs
