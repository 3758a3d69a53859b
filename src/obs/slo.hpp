// Observability v2: declarative per-tenant SLOs with burn-rate states.
//
// The paper's bounds suggest the SLOs a deployment would actually write
// down: a response-time ceiling tied to the guarantee (`p99 ≤ M·L` — at
// most M accesses of service quantum L), a miss-rate budget tied to the
// statistical admission knob (`miss rate ≤ ε`), and an admission floor for
// reserved tenants (shed fraction ≤ 1 - floor). An SloSpec declares one of
// those; the SloMonitor evaluates it over sliding windows of per-interval
// samples and classifies each evaluated window with the standard
// multi-window burn-rate scheme:
//
//   burn = (bad fraction over the window) / budget
//   page  ⇔ burn_short ≥ page_burn  AND  burn_long ≥ page_burn
//   warn  ⇔ not page, and both burns ≥ warn_burn
//
// With short_windows = long_windows = 1 this degenerates to exact
// per-window classification — which is what the verifier's SLO oracle
// uses to assert "pages in the breaching window and only there".
//
// Feeding protocol: the pipeline tallies {total, bad} per spec per QoS
// window in locals and calls record() once per window at interval
// rollover, windows in increasing order. record() is mutex-protected but
// boundary-frequency — never per-request. Evaluations publish gauges
// (`slo.state`, `slo.burn_short_ppm`, `slo.burn_long_ppm`) and counters
// (`slo.page_windows`, `slo.warn_windows`) into the global MetricRegistry
// so /metrics shows SLO health, and append to a bounded structured
// violation log served by /slo.
//
// The global monitor assumes one configured pipeline at a time (a live
// replay); concurrent SLO-configured replays would interleave samples.
// All timestamps are window indices over SimTime — no wall clocks.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/annotations.hpp"

namespace flashqos::obs {

enum class SloKind : std::uint8_t {
  /// Fraction of responses above threshold_ns must stay ≤ budget.
  /// budget = 0.01 makes this exactly "p99 ≤ threshold".
  kP99Response = 0,
  /// Fraction of responses above the deadline threshold_ns ≤ budget (ε).
  /// Same mechanics as kP99Response; kept distinct so specs read like the
  /// paper's claims.
  kMissRate = 1,
  /// Fraction of enqueue attempts shed ≤ budget (admission ≥ 1 - budget).
  kAdmissionFloor = 2,
};

[[nodiscard]] const char* to_string(SloKind kind);

/// One declarative SLO. `tenant` empty means all traffic.
struct SloSpec {
  std::string tenant;
  SloKind kind = SloKind::kP99Response;
  std::int64_t threshold_ns = 0;  // response bound / deadline; unused for
                                  // kAdmissionFloor
  double budget = 0.01;           // allowed bad fraction
  std::uint32_t short_windows = 1;
  std::uint32_t long_windows = 12;
  double warn_burn = 0.5;
  double page_burn = 1.0;

  /// Stable identifier used as the `slo=` gauge label and in reports,
  /// e.g. `p99_response/tenantA` or `miss_rate/*`.
  [[nodiscard]] std::string name() const;

  /// Empty string when well-formed, else a human-readable problem.
  [[nodiscard]] std::string validate() const;
};

class SloMonitor {
 public:
  enum class State : std::uint8_t { kOk = 0, kWarn = 1, kPage = 2 };

  /// One evaluated window that was not ok.
  struct Violation {
    std::size_t spec = 0;
    std::int64_t window = 0;
    State state = State::kOk;
    std::uint64_t total = 0;
    std::uint64_t bad = 0;
    double burn_short = 0.0;
    double burn_long = 0.0;
  };

  struct SpecStatus {
    SloSpec spec;
    State state = State::kOk;  // state of the most recent evaluated window
    double burn_short = 0.0;
    double burn_long = 0.0;
    std::uint64_t windows = 0;  // windows evaluated
    std::uint64_t pages = 0;    // windows classified page
    std::uint64_t warns = 0;    // windows classified warn
  };

  struct Snapshot {
    std::vector<SpecStatus> specs;
    std::vector<Violation> log;  // oldest first
    std::uint64_t log_dropped = 0;
  };

  SloMonitor() = default;
  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  /// Process-wide monitor (leaked like the registries).
  [[nodiscard]] static SloMonitor& global();

  /// Install specs and reset every sample/state/log. Specs must validate.
  void configure(std::vector<SloSpec> specs);

  [[nodiscard]] SloSpec spec(std::size_t index) const;

  /// Feed one evaluated window for spec `index`; windows must arrive in
  /// increasing order per spec. Classifies the window, updates gauges and
  /// the violation log. Windows with total == 0 still slide the burn
  /// window (an idle window is evidence of health).
  void record(std::size_t index, std::int64_t window, std::uint64_t total,
              std::uint64_t bad);

  [[nodiscard]] State state(std::size_t index) const;
  [[nodiscard]] Snapshot snapshot() const;

  /// Drop samples/state/log but keep the configured specs.
  void reset();

 private:
  struct SpecState {
    SloSpec spec;
    std::vector<std::pair<std::uint64_t, std::uint64_t>>
        samples;  // (total, bad), most recent last, ≤ long_windows entries
    State state = State::kOk;
    double burn_short = 0.0;
    double burn_long = 0.0;
    std::uint64_t windows = 0;
    std::uint64_t pages = 0;
    std::uint64_t warns = 0;
    std::int64_t published_state = -1;  // last gauge value pushed, -1 = none
    std::int64_t published_short_ppm = 0;
    std::int64_t published_long_ppm = 0;
  };

  static constexpr std::size_t kMaxLog = 256;

  mutable std::mutex mutex_;
  std::vector<SpecState> specs_ FLASHQOS_GUARDED_BY(mutex_);
  std::vector<Violation> log_ FLASHQOS_GUARDED_BY(mutex_);
  std::uint64_t log_dropped_ FLASHQOS_GUARDED_BY(mutex_) = 0;
};

[[nodiscard]] const char* to_string(SloMonitor::State state);

/// JSON report for the /slo endpoint: specs with current burn/state plus
/// the violation log.
[[nodiscard]] std::string to_json(const SloMonitor::Snapshot& snap);

}  // namespace flashqos::obs
