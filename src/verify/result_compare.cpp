#include "verify/result_compare.hpp"

#include <array>
#include <map>
#include <sstream>
#include <utility>

namespace flashqos::verify {

bool field_eq(double a, double b, const char* name, std::size_t where,
              std::string* why) {
  if (a == b) return true;
  if (why != nullptr) {
    std::ostringstream ss;
    ss.precision(17);
    ss << name << " diverged at index " << where << ": " << a << " vs " << b;
    *why = ss.str();
  }
  return false;
}

bool count_eq(std::uint64_t a, std::uint64_t b, const char* name,
              std::size_t where, std::string* why) {
  if (a == b) return true;
  if (why != nullptr) {
    *why = std::string(name) + " diverged at index " + std::to_string(where) +
           ": " + std::to_string(a) + " vs " + std::to_string(b);
  }
  return false;
}

bool interval_report_eq(const core::IntervalReport& a,
                        const core::IntervalReport& b, std::size_t where,
                        std::string* why) {
  return count_eq(a.requests, b.requests, "requests", where, why) &&
         field_eq(a.avg_response_ms, b.avg_response_ms, "avg_response_ms", where, why) &&
         field_eq(a.max_response_ms, b.max_response_ms, "max_response_ms", where, why) &&
         field_eq(a.avg_e2e_ms, b.avg_e2e_ms, "avg_e2e_ms", where, why) &&
         field_eq(a.max_e2e_ms, b.max_e2e_ms, "max_e2e_ms", where, why) &&
         count_eq(a.deferred, b.deferred, "deferred", where, why) &&
         field_eq(a.pct_deferred, b.pct_deferred, "pct_deferred", where, why) &&
         field_eq(a.avg_delay_ms, b.avg_delay_ms, "avg_delay_ms", where, why) &&
         field_eq(a.fim_match_rate, b.fim_match_rate, "fim_match_rate", where, why) &&
         count_eq(a.failed, b.failed, "failed", where, why) &&
         count_eq(a.writes, b.writes, "writes", where, why) &&
         field_eq(a.avg_write_ms, b.avg_write_ms, "avg_write_ms", where, why);
}

bool stream_result_matches(const core::PipelineResult& want,
                           const core::StreamResult& got, std::string* why) {
  if (!count_eq(got.requests, want.outcomes.size(), "request count", 0, why) ||
      !count_eq(got.deadline_violations, want.deadline_violations,
                "deadline_violations", 0, why) ||
      !count_eq(got.tenant_usage.size(), want.tenant_usage.size(),
                "tenant_usage count", 0, why)) {
    return false;
  }
  for (std::size_t i = 0; i < want.tenant_usage.size(); ++i) {
    const auto& x = want.tenant_usage[i];
    const auto& y = got.tenant_usage[i];
    if (!count_eq(y.arrivals, x.arrivals, "tenant arrivals", i, why) ||
        !count_eq(y.admitted, x.admitted, "tenant admitted", i, why) ||
        !count_eq(y.shed, x.shed, "tenant shed", i, why) ||
        !count_eq(y.marked, x.marked, "tenant marked", i, why) ||
        !count_eq(y.max_depth, x.max_depth, "tenant max_depth", i, why)) {
      return false;
    }
  }
  if (!count_eq(got.intervals.size(), want.intervals.size(), "interval count",
                0, why)) {
    return false;
  }
  for (std::size_t i = 0; i < want.intervals.size(); ++i) {
    if (!interval_report_eq(want.intervals[i], got.intervals[i], i, why)) {
      return false;
    }
  }
  return interval_report_eq(want.overall, got.overall, 0, why);
}

namespace {

using InstrumentKey = std::pair<std::string, std::string>;

std::string key_str(const InstrumentKey& k) {
  return k.second.empty() ? k.first : k.first + "{" + k.second + "}";
}

}  // namespace

bool metrics_snapshots_match(const obs::MetricsSnapshot& want,
                             const obs::MetricsSnapshot& got,
                             const InstrumentFilter& excluded,
                             std::string* why) {
  const auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  {
    std::map<InstrumentKey, std::array<std::uint64_t, 2>> vals;
    for (const auto& c : want.counters) {
      if (!excluded(c.name)) vals[{c.name, c.labels}][0] = c.value;
    }
    for (const auto& c : got.counters) {
      if (!excluded(c.name)) vals[{c.name, c.labels}][1] = c.value;
    }
    for (const auto& [k, v] : vals) {
      if (v[0] != v[1]) {
        return fail("counter " + key_str(k) + ": " + std::to_string(v[1]) +
                    " != expected " + std::to_string(v[0]));
      }
    }
  }
  {
    std::map<InstrumentKey, std::array<std::int64_t, 2>> vals;
    for (const auto& g : want.gauges) {
      if (!excluded(g.name)) vals[{g.name, g.labels}][0] = g.value;
    }
    for (const auto& g : got.gauges) {
      if (!excluded(g.name)) vals[{g.name, g.labels}][1] = g.value;
    }
    for (const auto& [k, v] : vals) {
      if (v[0] != v[1]) {
        return fail("gauge " + key_str(k) + ": " + std::to_string(v[1]) +
                    " != expected " + std::to_string(v[0]));
      }
    }
  }
  {
    std::map<InstrumentKey, std::array<const obs::HistogramSnapshot*, 2>> hists;
    for (const auto& h : want.histograms) {
      if (!excluded(h.name)) hists[{h.name, h.labels}][0] = &h;
    }
    for (const auto& h : got.histograms) {
      if (!excluded(h.name)) hists[{h.name, h.labels}][1] = &h;
    }
    for (const auto& [k, pair] : hists) {
      const auto* a = pair[0];
      const auto* b = pair[1];
      const std::uint64_t ca = a != nullptr ? a->count : 0;
      const std::uint64_t cb = b != nullptr ? b->count : 0;
      if (ca != cb) {
        return fail("histogram " + key_str(k) + ": count " +
                    std::to_string(cb) + " != expected " + std::to_string(ca));
      }
      if (ca == 0) continue;
      if (a->sum != b->sum || a->min != b->min || a->max != b->max ||
          a->exact != b->exact) {
        return fail("histogram " + key_str(k) + ": {sum,min,max,exact} " +
                    "diverged (sum " + std::to_string(b->sum) +
                    " != " + std::to_string(a->sum) + " or bounds/exactness)");
      }
      if (a->values != b->values) {
        return fail("histogram " + key_str(k) + ": exact value multiset diverged");
      }
      if (a->buckets.size() != b->buckets.size()) {
        return fail("histogram " + key_str(k) + ": bucket count " +
                    std::to_string(b->buckets.size()) + " != expected " +
                    std::to_string(a->buckets.size()));
      }
      for (std::size_t i = 0; i < a->buckets.size(); ++i) {
        if (a->buckets[i].lo != b->buckets[i].lo ||
            a->buckets[i].hi != b->buckets[i].hi ||
            a->buckets[i].count != b->buckets[i].count) {
          return fail("histogram " + key_str(k) + ": bucket " +
                      std::to_string(i) + " diverged");
        }
      }
    }
  }
  return true;
}

bool series_snapshots_match(const obs::TimeSeriesSnapshot& want,
                            const obs::TimeSeriesSnapshot& got,
                            std::string* why) {
  const auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  std::map<InstrumentKey, std::array<const obs::SeriesSnapshot*, 2>> all;
  for (const auto& s : want.series) all[{s.name, s.labels}][0] = &s;
  for (const auto& s : got.series) all[{s.name, s.labels}][1] = &s;
  for (const auto& [k, pair] : all) {
    const auto* a = pair[0];
    const auto* b = pair[1];
    const std::size_t na = a != nullptr ? a->points.size() : 0;
    const std::size_t nb = b != nullptr ? b->points.size() : 0;
    if (na != nb) {
      return fail("series " + key_str(k) + ": " + std::to_string(nb) +
                  " points != expected " + std::to_string(na));
    }
    if (na == 0) continue;
    if (a->width != b->width) {
      return fail("series " + key_str(k) + ": width diverged");
    }
    for (std::size_t i = 0; i < na; ++i) {
      const auto& x = a->points[i];
      const auto& y = b->points[i];
      if (x.window != y.window || x.sum != y.sum || x.count != y.count ||
          x.min != y.min || x.max != y.max || x.first_time != y.first_time) {
        return fail("series " + key_str(k) + " window " +
                    std::to_string(x.window) + ": {sum=" +
                    std::to_string(y.sum) + ",count=" + std::to_string(y.count) +
                    ",min=" + std::to_string(y.min) + ",max=" +
                    std::to_string(y.max) + ",first=" +
                    std::to_string(y.first_time) + "} != expected {sum=" +
                    std::to_string(x.sum) + ",count=" + std::to_string(x.count) +
                    ",min=" + std::to_string(x.min) + ",max=" +
                    std::to_string(x.max) + ",first=" +
                    std::to_string(x.first_time) + "}");
      }
    }
  }
  return true;
}

}  // namespace flashqos::verify
