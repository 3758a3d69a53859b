// DiskSim ASCII trace format I/O.
//
// The paper's synthetic generator "produces ASCII format input trace for
// DiskSim". The classic DiskSim input line is
//     <arrival-time-ms> <device-number> <block-number> <request-size> <flags>
// with flags bit 0 set for reads. We read and write that format so traces
// interchange with real DiskSim deployments.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "trace/event.hpp"

namespace flashqos::trace {

/// Serialize to DiskSim ASCII. Sizes are written in 512-byte sectors as
/// DiskSim expects (one 8 KB block = 16 sectors).
void write_disksim_ascii(const Trace& t, std::ostream& out);

/// One parsed DiskSim ASCII line, pre-conversion (shared by the in-memory
/// reader and the streaming cursor so both accept exactly the same input).
struct DisksimLine {
  double time_ms = 0.0;
  std::uint64_t device = 0;
  std::uint64_t block = 0;
  std::uint64_t sectors = 0;
  unsigned flags = 0;
};

enum class DisksimParse {
  kOk,
  kMalformed,  // fewer than 5 fields or a field fails to parse
  kBadSize,    // sectors == 0 or not a whole number of 8 KB blocks
};

/// Parse one non-comment, non-blank line (no trailing newline). Structured
/// result; callers attach the line number.
[[nodiscard]] DisksimParse parse_disksim_line(std::string_view line,
                                              DisksimLine& out);

/// Convert a parsed line to a trace event (ms → SimTime, sectors → blocks).
/// A time past kMaxEventTime comes out as kMaxEventTime + 1, which
/// valid_trace and the cursor reject.
[[nodiscard]] TraceEvent disksim_to_event(const DisksimLine& l);

/// Parse DiskSim ASCII; returns the trace with metadata fields
/// (name/volumes/report_interval) taken from the arguments. Throws
/// std::runtime_error on malformed lines.
[[nodiscard]] Trace read_disksim_ascii(std::istream& in, std::string name,
                                       std::uint32_t volumes,
                                       SimTime report_interval);

}  // namespace flashqos::trace
