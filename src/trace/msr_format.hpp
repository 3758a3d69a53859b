// MSR-Cambridge / SNIA IOTTA CSV trace format.
//
// The traces the paper evaluates on are distributed by SNIA in the
// MSR-Cambridge CSV schema:
//   Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
// with Timestamp in Windows filetime (100 ns ticks), Offset/Size in bytes,
// Type "Read"/"Write". Anyone holding the real Exchange/TPC-E traces can
// convert them with this reader and run the paper's experiments verbatim
// (see examples/trace_workbench).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "trace/event.hpp"

namespace flashqos::trace {

struct MsrReadOptions {
  /// Volumes (DiskNumber is taken modulo this; 0 = max seen + 1).
  std::uint32_t volumes = 0;
  /// Reporting interval for the resulting trace.
  SimTime report_interval = 15LL * 60 * kSecond;  // the Exchange trace's 15 min
  /// Drop writes (the paper's experiments use read requests).
  bool reads_only = false;
  /// Block size for the Offset -> block conversion (paper: 8 KB alignment).
  std::uint64_t block_bytes = 8192;
};

/// One parsed MSR CSV row, pre-conversion (shared by the in-memory reader
/// and the streaming cursor so both accept exactly the same input).
struct MsrRow {
  std::int64_t ts = 0;  // Windows filetime ticks (100 ns)
  std::uint32_t disk = 0;
  std::uint64_t offset = 0;  // bytes
  std::uint64_t size = 0;    // bytes
  bool is_read = false;
};

enum class MsrParse {
  kOk,
  kSkipped,        // reads_only filter dropped a write row
  kTooFewColumns,  // fewer than 6 CSV cells
  kMalformed,      // a numeric cell fails to parse
};

/// Parse one non-comment, non-blank CSV row (no trailing newline). The
/// reads_only filter applies before Offset/Size are parsed, matching the
/// in-memory reader. Structured result; callers attach the line number.
[[nodiscard]] MsrParse parse_msr_row(std::string_view line, bool reads_only,
                                     MsrRow& out);

/// A row's event time in ns: `ts` rebased on `first_ts`, in filetime
/// ticks of 100 ns. A row before `first_ts` comes out negative, and one
/// more than kMaxEventTime after it as kMaxEventTime + 1 (the product
/// would overflow first), so valid_trace and the cursor reject both.
[[nodiscard]] SimTime msr_event_time(std::int64_t ts, std::int64_t first_ts) noexcept;

/// Parse an MSR-Cambridge CSV stream. Rows may come in any order: events
/// are sorted by time and rebased so the earliest is at t = 0. Lines
/// starting with '#' and blank lines are skipped. Throws
/// std::runtime_error on malformed rows, and on a timestamp more than
/// kMaxEventTime after the earliest row's.
[[nodiscard]] Trace read_msr_csv(std::istream& in, std::string name,
                                 const MsrReadOptions& opts = {});

/// Serialize a trace in the same schema (Hostname = trace name).
void write_msr_csv(const Trace& t, std::ostream& out);

}  // namespace flashqos::trace
