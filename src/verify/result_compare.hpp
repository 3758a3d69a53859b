// Exact-equality result/snapshot comparators shared by the replay-identity
// oracles (stream_oracle, daemon_oracle).
//
// Everything here compares bit-exactly: doubles with ==, counters value by
// value, histograms down to the exact-value multiset. The oracles' claims
// are identities, not approximations — one ULP of drift means an
// accumulation order leaked through the seam under audit.
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "core/qos_pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace flashqos::verify {

/// Exact double compare; on mismatch writes "<name> diverged at index
/// <where>: a vs b" into *why (when non-null).
[[nodiscard]] bool field_eq(double a, double b, const char* name,
                            std::size_t where, std::string* why);

[[nodiscard]] bool count_eq(std::uint64_t a, std::uint64_t b, const char* name,
                            std::size_t where, std::string* why);

/// Every field of an IntervalReport, exactly.
[[nodiscard]] bool interval_report_eq(const core::IntervalReport& a,
                                      const core::IntervalReport& b,
                                      std::size_t where, std::string* why);

/// StreamResult carries everything PipelineResult does except the O(trace)
/// outcomes vector; every shared field must agree exactly: the request
/// count, every IntervalReport field (doubles compared with ==, not a
/// tolerance — the replays must take identical floating-point paths),
/// tenant usage, overall, and the deadline-violation count. On mismatch,
/// `why` (if non-null) names the first diverging field.
[[nodiscard]] bool stream_result_matches(const core::PipelineResult& want,
                                         const core::StreamResult& got,
                                         std::string* why);

/// Predicate naming instruments that legitimately differ between two legs
/// (wall-clock timings, transport accounting); everything else must match.
using InstrumentFilter = std::function<bool(std::string_view)>;

/// Absolute registry identity modulo `excluded`: a missing instrument
/// compares equal to a zero/empty one (reset() keeps created instruments
/// alive, so legs can differ in which zeros exist).
[[nodiscard]] bool metrics_snapshots_match(const obs::MetricsSnapshot& want,
                                           const obs::MetricsSnapshot& got,
                                           const InstrumentFilter& excluded,
                                           std::string* why);

/// Windowed time-series identity: every point of every series, both
/// directions. `evicted` is excluded by contract (it depends on record
/// arrival order; point content does not).
[[nodiscard]] bool series_snapshots_match(const obs::TimeSeriesSnapshot& want,
                                          const obs::TimeSeriesSnapshot& got,
                                          std::string* why);

}  // namespace flashqos::verify
