// Observability self-audit: the metric registry's numbers must be
// *accountable* — derivable from the replay results they claim to
// describe — or the observability layer is reporting fiction.
//
// verify_observability resets the global registry, replays a set of
// pipeline configurations (admission modes, retrieval modes, failures,
// writes) serially, tallies the expected totals from the returned
// outcomes, and checks:
//
//   * pipeline counters equal the outcome tallies (requests, reads served,
//     writes, failures, dispatches), the per-stage latency histograms
//     (queue, schedule, service) count and sum the served reads' stages,
//     the per-tenant WFQ counters equal the result's tenant usage, and the
//     injected-fault counters the compiled plans' sizes;
//   * the rebuild pending-read gauge reads > 0 while a rebuilding replay
//     runs and 0 after every replay;
//   * every histogram is internally consistent (bucket counts sum to the
//     recorded count, the exact value multiset sums to it too, percentiles
//     are monotone between min and max) and the response histogram's
//     count/sum match the outcome fold exactly;
//   * each of the six latency histograms (response, e2e, delay and the
//     three stages) snapshots exactly — count, sum, min, max, `exact`,
//     values, buckets — as a reference LatencyHistogram given one record()
//     per served read of every replay; an over-budget leg makes sure both
//     the exact and the bucketed regime are among them;
//   * per-device service counters sum to total array accesses, which equal
//     submissions, which equal dispatches + per-replica write ops;
//   * retrieval fast-path + max-flow fallback invocations equal total
//     retrieve() invocations;
//   * every exported windowed time-series point rederives exactly — {sum,
//     count, min, max, first_time}, in both directions, after the ring-
//     retention rule — from the outcomes (window-identity oracle), and the
//     registry's seeded mis-fold knob is detected (mutation check);
//   * under a latency-spike plan that breaches the p99 ≤ M·L bound, the
//     SLO monitor (short = long = 1, so burn classification is exact per
//     window) pages in every breaching window and only there;
//   * the trace ring holds one arrival/admission/retrieval span triple per
//     request, three stage slices per served read, and one service slice
//     per completion, with nothing dropped.
//
// In a FLASHQOS_OBS=OFF build the instrumentation is compiled out; the
// audit degenerates to a single (passing) "skipped" check so the CLI works
// in both configurations.
#pragma once

#include <string>

#include "decluster/allocation.hpp"
#include "obs/metrics.hpp"
#include "verify/invariants.hpp"

namespace flashqos::verify {

struct ObsCheckParams {
  std::uint64_t seed = 1;
  double trace_scale = 0.05;       // exchange workload scale
  std::size_t p_samples = 200;     // P_k sampling for the statistical config
};

/// The first field in which histogram snapshot `got` differs from `want`
/// (count, sum, min, max, exact, values or buckets), described for a
/// report; empty when the two are identical. Names and labels are not
/// compared.
[[nodiscard]] std::string histogram_mismatch(const obs::HistogramSnapshot& got,
                                             const obs::HistogramSnapshot& want);

[[nodiscard]] Report verify_observability(
    const decluster::AllocationScheme& scheme, const ObsCheckParams& params = {});

}  // namespace flashqos::verify
