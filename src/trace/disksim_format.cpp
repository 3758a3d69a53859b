#include "trace/disksim_format.hpp"

#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace flashqos::trace {
namespace {

constexpr std::uint32_t kSectorsPerBlock = 16;  // 8 KB / 512 B
constexpr unsigned kReadFlag = 0x1;

constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// Next whitespace-delimited token of `line` starting at `pos`; empty when
/// the line is exhausted.
std::string_view next_token(std::string_view line, std::size_t& pos) {
  while (pos < line.size() && is_space(line[pos])) ++pos;
  const std::size_t begin = pos;
  while (pos < line.size() && !is_space(line[pos])) ++pos;
  return line.substr(begin, pos - begin);
}

template <typename T>
bool parse_field(std::string_view tok, T& out) {
  if (tok.empty()) return false;
  const auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), out);
  return ec == std::errc{} && ptr == tok.data() + tok.size();
}

}  // namespace

void write_disksim_ascii(const Trace& t, std::ostream& out) {
  // Integer milliseconds plus six fractional digits: exactly the
  // nanosecond clock, at any trace length.
  char frac[7] = {};
  for (const auto& e : t.events) {
    SimTime ns = e.time % kMillisecond;
    for (int i = 5; i >= 0; --i, ns /= 10) frac[i] = static_cast<char>('0' + ns % 10);
    out << e.time / kMillisecond << '.' << frac << ' ' << e.device << ' ' << e.block
        << ' ' << e.size_blocks * kSectorsPerBlock << ' '
        << (e.is_read ? kReadFlag : 0U) << '\n';
  }
}

DisksimParse parse_disksim_line(std::string_view line, DisksimLine& out) {
  std::size_t pos = 0;
  if (!parse_field(next_token(line, pos), out.time_ms) ||
      !parse_field(next_token(line, pos), out.device) ||
      !parse_field(next_token(line, pos), out.block) ||
      !parse_field(next_token(line, pos), out.sectors) ||
      !parse_field(next_token(line, pos), out.flags)) {
    return DisksimParse::kMalformed;
  }
  if (out.sectors == 0 || out.sectors % kSectorsPerBlock != 0) {
    return DisksimParse::kBadSize;
  }
  return DisksimParse::kOk;
}

TraceEvent disksim_to_event(const DisksimLine& l) {
  // A time past kMaxEventTime (or not a number) becomes kMaxEventTime + 1,
  // which every range check rejects; from_ms would overflow first.
  const double ns = l.time_ms * static_cast<double>(kMillisecond);
  return TraceEvent{
      .time = std::abs(ns) <= static_cast<double>(kMaxEventTime) ? from_ms(l.time_ms)
                                                                 : kMaxEventTime + 1,
      .block = l.block,
      .device = static_cast<DeviceId>(l.device),
      .size_blocks = static_cast<std::uint32_t>(l.sectors / kSectorsPerBlock),
      .is_read = (l.flags & kReadFlag) != 0};
}

Trace read_disksim_ascii(std::istream& in, std::string name, std::uint32_t volumes,
                         SimTime report_interval) {
  Trace t;
  t.name = std::move(name);
  t.volumes = volumes;
  t.report_interval = report_interval;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line.front() == '#') continue;
    DisksimLine l;
    switch (parse_disksim_line(line, l)) {
      case DisksimParse::kMalformed:
        throw std::runtime_error("disksim trace: malformed line " +
                                 std::to_string(line_no));
      case DisksimParse::kBadSize:
        throw std::runtime_error("disksim trace: size not 8KB-aligned at line " +
                                 std::to_string(line_no));
      case DisksimParse::kOk:
        break;
    }
    t.events.push_back(disksim_to_event(l));
  }
  if (!valid_trace(t)) {
    throw std::runtime_error("disksim trace: events not sorted or out of range");
  }
  return t;
}

}  // namespace flashqos::trace
