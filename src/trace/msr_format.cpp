#include "trace/msr_format.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "util/expect.hpp"

namespace flashqos::trace {
namespace {

constexpr SimTime kFiletimeTick = 100;  // 100 ns per Windows filetime tick
constexpr std::size_t kMsrColumns = 6;  // Timestamp..Size (ResponseTime unused)

/// Split the first kMsrColumns comma-separated cells of `line` into `cells`
/// without allocating; returns how many were found (trailing cells beyond
/// the schema are ignored, as the in-memory reader does).
std::size_t split_cells(std::string_view line,
                        std::array<std::string_view, kMsrColumns>& cells) {
  std::size_t count = 0;
  std::size_t pos = 0;
  while (count < kMsrColumns) {
    const std::size_t comma = line.find(',', pos);
    if (comma == std::string_view::npos) {
      cells[count++] = line.substr(pos);
      break;
    }
    cells[count++] = line.substr(pos, comma - pos);
    pos = comma + 1;
  }
  return count;
}

template <typename T>
bool parse_cell(std::string_view cell, T& out) {
  // std::stoll-era leniency: tolerate surrounding whitespace (including a
  // CSV row's trailing '\r').
  while (!cell.empty() && (cell.front() == ' ' || cell.front() == '\t')) {
    cell.remove_prefix(1);
  }
  while (!cell.empty() &&
         (cell.back() == ' ' || cell.back() == '\t' || cell.back() == '\r')) {
    cell.remove_suffix(1);
  }
  if (cell.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(cell.data(), cell.data() + cell.size(), out);
  return ec == std::errc{} && ptr == cell.data() + cell.size();
}

}  // namespace

MsrParse parse_msr_row(std::string_view line, bool reads_only, MsrRow& out) {
  std::array<std::string_view, kMsrColumns> cells{};
  if (split_cells(line, cells) < kMsrColumns) return MsrParse::kTooFewColumns;
  if (!parse_cell(cells[0], out.ts)) return MsrParse::kMalformed;
  if (!parse_cell(cells[2], out.disk)) return MsrParse::kMalformed;
  out.is_read = cells[3] == "Read" || cells[3] == "read" || cells[3] == "R";
  if (reads_only && !out.is_read) return MsrParse::kSkipped;
  if (!parse_cell(cells[4], out.offset)) return MsrParse::kMalformed;
  if (!parse_cell(cells[5], out.size)) return MsrParse::kMalformed;
  return MsrParse::kOk;
}

SimTime msr_event_time(std::int64_t ts, std::int64_t first_ts) noexcept {
  if (ts < first_ts) return -1;
  // ts >= first_ts, so the difference fits in 64 unsigned bits.
  const auto ticks =
      static_cast<std::uint64_t>(ts) - static_cast<std::uint64_t>(first_ts);
  constexpr auto kMaxTicks = static_cast<std::uint64_t>(kMaxEventTime / kFiletimeTick);
  return ticks <= kMaxTicks ? static_cast<SimTime>(ticks) * kFiletimeTick
                            : kMaxEventTime + 1;
}

Trace read_msr_csv(std::istream& in, std::string name, const MsrReadOptions& opts) {
  FLASHQOS_EXPECT(opts.block_bytes > 0, "block size must be positive");
  Trace t;
  t.name = std::move(name);
  t.report_interval = opts.report_interval;

  std::string line;
  std::size_t line_no = 0;
  std::uint32_t max_disk = 0;
  struct Row {
    std::int64_t ts;
    std::uint32_t disk;
    DataBlockId block;
    std::uint32_t blocks;
    bool is_read;
  };
  std::vector<Row> rows;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line.front() == '#') continue;
    MsrRow row;
    switch (parse_msr_row(line, opts.reads_only, row)) {
      case MsrParse::kSkipped:
        continue;
      case MsrParse::kTooFewColumns:
        throw std::runtime_error("msr csv: too few columns at line " +
                                 std::to_string(line_no));
      case MsrParse::kMalformed:
        throw std::runtime_error("msr csv: malformed row at line " +
                                 std::to_string(line_no));
      case MsrParse::kOk:
        break;
    }
    const DataBlockId first_block = row.offset / opts.block_bytes;
    const auto nblocks = static_cast<std::uint32_t>(std::max<std::uint64_t>(
        1, (row.size + opts.block_bytes - 1) / opts.block_bytes));
    max_disk = std::max(max_disk, row.disk);
    rows.push_back({row.ts, row.disk, first_block, nblocks, row.is_read});
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) { return a.ts < b.ts; });
  const std::int64_t first_ts = rows.empty() ? 0 : rows.front().ts;
  t.volumes = opts.volumes != 0 ? opts.volumes : max_disk + 1;
  t.events.reserve(rows.size());
  for (const auto& r : rows) {
    t.events.push_back(TraceEvent{
        .time = msr_event_time(r.ts, first_ts),
        .block = r.block,
        .device = static_cast<DeviceId>(r.disk % t.volumes),
        .size_blocks = r.blocks,
        .is_read = r.is_read});
  }
  if (!valid_trace(t)) {
    throw std::runtime_error(
        "msr csv: timestamp more than 2^62 ns after the earliest row's");
  }
  return t;
}

void write_msr_csv(const Trace& t, std::ostream& out) {
  for (const auto& e : t.events) {
    out << e.time / kFiletimeTick << ',' << t.name << ',' << e.device << ','
        << (e.is_read ? "Read" : "Write") << ',' << e.block * 8192 << ','
        << e.size_blocks * 8192 << ",0\n";
  }
}

}  // namespace flashqos::trace
