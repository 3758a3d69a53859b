// Conversions between human units and the simulator's integer nanoseconds.
//
// All simulation arithmetic is done on SimTime (int64 ns) so results are
// exactly reproducible across platforms; doubles appear only at the
// reporting boundary.
#pragma once

#include <cmath>

#include "util/types.hpp"

namespace flashqos {

inline constexpr SimTime kNanosecond = 1;
inline constexpr SimTime kMicrosecond = 1000;
inline constexpr SimTime kMillisecond = 1000 * 1000;
inline constexpr SimTime kSecond = 1000 * 1000 * 1000;

/// One 8 KB page read on the simulated flash module. This is the MSR SSD
/// extension parameter the paper quotes: 0.132507 ms.
inline constexpr SimTime kPageReadLatency = 132507 * kNanosecond;

/// The paper's canonical QoS interval, "slightly larger than the response
/// time of one block request": 0.133 ms.
inline constexpr SimTime kBaseInterval = 133 * kMicrosecond;

/// The latest arrival time the simulator accepts: 2^62 ns, about 146
/// years. Every place an arrival time enters (the wire decoder, the trace
/// readers and cursors, valid_trace, the engine's ingest check) rejects a
/// later one, which leaves the engine's interval and service arithmetic
/// (next boundary, (q + 1) * T, start + service) far from overflow.
inline constexpr SimTime kMaxEventTime = SimTime{1} << 62;

[[nodiscard]] constexpr double to_ms(SimTime t) noexcept {
  return static_cast<double>(t) / static_cast<double>(kMillisecond);
}

[[nodiscard]] constexpr double to_sec(SimTime t) noexcept {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

/// `ms` milliseconds in ns, rounded to the nearest. Precondition: the
/// result fits SimTime — a NaN or a value past int64 has no SimTime, and
/// std::llround's result is then unspecified. Config times go through
/// Config::get_ms/parse_ms, which check it.
[[nodiscard]] inline SimTime from_ms(double ms) noexcept {
  return static_cast<SimTime>(std::llround(ms * static_cast<double>(kMillisecond)));
}

/// `us` microseconds in ns, rounded; the same precondition as from_ms.
[[nodiscard]] inline SimTime from_us(double us) noexcept {
  return static_cast<SimTime>(std::llround(us * static_cast<double>(kMicrosecond)));
}

/// Index of the interval of width `interval` containing time `t` (t >= 0).
[[nodiscard]] constexpr std::int64_t interval_index(SimTime t, SimTime interval) noexcept {
  return t / interval;
}

/// Start time of the next interval boundary at or after `t`.
[[nodiscard]] constexpr SimTime next_interval_start(SimTime t, SimTime interval) noexcept {
  const std::int64_t idx = t / interval;
  return (t % interval == 0) ? t : (idx + 1) * interval;
}

}  // namespace flashqos
