// Storage trace events.
//
// A trace is a time-ordered sequence of block read requests. Events carry
// the *data-block* id (storage-system domain) plus the device/volume the
// original system served the block from — replaying onto that device is the
// paper's "original stand" baseline (§V-D).
#pragma once

#include <string>
#include <vector>

#include "util/time.hpp"
#include "util/types.hpp"

namespace flashqos::trace {

struct TraceEvent {
  SimTime time = 0;           // arrival at the I/O driver
  DataBlockId block = 0;      // 8 KB-aligned block number
  DeviceId device = 0;        // volume the original trace serves this from
  std::uint32_t size_blocks = 1;  // request size in 8 KB blocks
  bool is_read = true;
  /// Tenant class index into the pipeline's [tenants] table. File-format
  /// readers leave it 0; a single-tenant pipeline ignores it entirely.
  std::uint32_t tenant = 0;
};

struct Trace {
  std::string name;
  std::uint32_t volumes = 0;        // devices in the original system
  SimTime report_interval = 0;      // statistics interval (15 min for Exchange)
  std::vector<TraceEvent> events;   // sorted by time

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
  [[nodiscard]] SimTime duration() const noexcept {
    return events.empty() ? 0 : events.back().time;
  }
  /// Number of reporting intervals covered (at least 1 for non-empty).
  [[nodiscard]] std::size_t report_intervals() const noexcept {
    if (events.empty() || report_interval <= 0) return 0;
    return static_cast<std::size_t>(duration() / report_interval) + 1;
  }
};

/// Verify events are sorted by time within [0, kMaxEventTime], with
/// in-range devices and non-zero sizes.
[[nodiscard]] bool valid_trace(const Trace& t);

/// Slice a trace's events into reporting intervals; result has
/// report_intervals() entries of indices into events.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> report_slices(
    const Trace& t);

}  // namespace flashqos::trace
