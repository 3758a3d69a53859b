#include "trace/event.hpp"

namespace flashqos::trace {

bool valid_trace(const Trace& t) {
  SimTime prev = 0;
  for (const auto& e : t.events) {
    if (e.time < prev || e.time > kMaxEventTime) return false;
    if (t.volumes != 0 && e.device >= t.volumes) return false;
    if (e.size_blocks == 0) return false;
    prev = e.time;
  }
  return true;
}

std::vector<std::pair<std::size_t, std::size_t>> report_slices(const Trace& t) {
  std::vector<std::pair<std::size_t, std::size_t>> slices;
  const std::size_t n = t.report_intervals();
  if (n == 0) return slices;
  slices.reserve(n);
  std::size_t begin = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const SimTime end_time = static_cast<SimTime>(i + 1) * t.report_interval;
    std::size_t end = begin;
    while (end < t.events.size() && t.events[end].time < end_time) ++end;
    slices.emplace_back(begin, end);
    begin = end;
  }
  return slices;
}

}  // namespace flashqos::trace
