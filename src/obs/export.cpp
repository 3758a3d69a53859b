#include "obs/export.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/http_exporter.hpp"
#include "util/time.hpp"

namespace flashqos::obs {
namespace {

/// Prometheus metric names are [a-zA-Z0-9_:]; our dotted internal names
/// (e.g. "pipeline.requests") become flashqos_pipeline_requests.
std::string prom_name(std::string_view name) {
  std::string out = "flashqos_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string with_labels(const std::string& base, const std::string& labels,
                        const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return base;
  std::string body = labels;
  if (!extra.empty()) {
    if (!body.empty()) body += ",";
    body += extra;
  }
  return base + "{" + body + "}";
}

/// RFC-4180 field escaping: any cell containing a comma, quote, CR, or LF
/// is wrapped in quotes with embedded quotes doubled. Label bodies always
/// need this (`key="value"` pairs, and values may embed commas); names get
/// the same treatment so a hostile instrument name cannot shear a row.
std::string csv_cell(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

void json_escape_into(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

}  // namespace

std::string to_prometheus(const MetricsSnapshot& snap) {
  std::ostringstream out;
  // Instruments are sorted by (name, labels); one TYPE line per family.
  std::string last_family;
  for (const auto& c : snap.counters) {
    const std::string name = prom_name(c.name) + "_total";
    if (name != last_family) {
      out << "# TYPE " << name << " counter\n";
      last_family = name;
    }
    out << with_labels(name, c.labels) << " " << c.value << "\n";
  }
  for (const auto& g : snap.gauges) {
    const std::string name = prom_name(g.name);
    if (name != last_family) {
      out << "# TYPE " << name << " gauge\n";
      last_family = name;
    }
    out << with_labels(name, g.labels) << " " << g.value << "\n";
  }
  for (const auto& h : snap.histograms) {
    const std::string name = prom_name(h.name);
    if (name != last_family) {
      out << "# TYPE " << name << " histogram\n";
      last_family = name;
    }
    std::uint64_t cum = 0;
    for (const auto& b : h.buckets) {
      cum += b.count;
      out << with_labels(name + "_bucket", h.labels,
                         "le=\"" + std::to_string(b.hi - 1) + "\"")
          << " " << cum << "\n";
    }
    out << with_labels(name + "_bucket", h.labels, "le=\"+Inf\"") << " "
        << h.count << "\n";
    out << with_labels(name + "_sum", h.labels) << " " << h.sum << "\n";
    out << with_labels(name + "_count", h.labels) << " " << h.count << "\n";
    if (h.count > 0) {
      // Quantile series (exact when the value tracker held; see metrics.hpp).
      for (const double q : {0.5, 0.95, 0.99}) {
        out << with_labels(name, h.labels,
                           "quantile=\"" + std::to_string(q).substr(0, 4) + "\"")
            << " " << h.percentile(q) << "\n";
      }
      out << with_labels(name + "_min", h.labels) << " " << h.min << "\n";
      out << with_labels(name + "_max", h.labels) << " " << h.max << "\n";
    }
  }
  return out.str();
}

std::string to_csv(const MetricsSnapshot& snap) {
  std::ostringstream out;
  out << "kind,name,labels,stat,value\n";
  for (const auto& c : snap.counters) {
    out << "counter," << csv_cell(c.name) << "," << csv_cell(c.labels)
        << ",value," << c.value << "\n";
  }
  for (const auto& g : snap.gauges) {
    out << "gauge," << csv_cell(g.name) << "," << csv_cell(g.labels)
        << ",value," << g.value << "\n";
  }
  for (const auto& h : snap.histograms) {
    const std::string prefix =
        "histogram," + csv_cell(h.name) + "," + csv_cell(h.labels) + ",";
    out << prefix << "count," << h.count << "\n";
    if (h.count == 0) continue;
    out << prefix << "sum," << h.sum << "\n";
    out << prefix << "min," << h.min << "\n";
    out << prefix << "p50," << h.percentile(0.50) << "\n";
    out << prefix << "p95," << h.percentile(0.95) << "\n";
    out << prefix << "p99," << h.percentile(0.99) << "\n";
    out << prefix << "max," << h.max << "\n";
    out << prefix << "exact," << (h.exact ? 1 : 0) << "\n";
  }
  return out.str();
}

std::string to_chrome_trace(const std::vector<TraceEvent>& events) {
  // trace_event timestamps are microseconds; ours are simulated ns. Emit
  // fractional µs so events closer than 1 µs stay ordered.
  const auto ts = [](SimTime t) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                  static_cast<long long>(t / 1000),
                  static_cast<long long>(t % 1000));
    return std::string(buf);
  };

  std::string out = "[";
  bool first = true;
  const auto emit = [&](const std::string& obj) {
    if (!first) out += ",\n";
    first = false;
    out += obj;
  };

  // Name the per-device tracks once.
  std::int32_t max_device = -1;
  for (const auto& e : events) max_device = std::max(max_device, e.device);
  for (std::int32_t d = 0; d <= max_device; ++d) {
    emit(R"({"name":"thread_name","ph":"M","pid":1,"tid":)" +
         std::to_string(d + 1) +
         R"(,"args":{"name":"device )" + std::to_string(d) + R"("}})");
  }

  for (const auto& e : events) {
    std::string detail;
    json_escape_into(detail, to_string(e.detail));
    switch (e.kind) {
      case EventKind::kDeviceService:
        // Complete slice on the device's track.
        emit(R"({"name":"service","ph":"X","pid":1,"tid":)" +
             std::to_string(e.device + 1) + R"(,"ts":)" + ts(e.start) +
             R"(,"dur":)" + ts(e.end - e.start) +
             R"(,"args":{"request":)" + std::to_string(e.request) + "}}");
        break;
      case EventKind::kArrival:
        // Async span open: closed by the matching kRetrieval/kAdmission end.
        emit(R"({"name":"request","cat":"req","ph":"b","id":)" +
             std::to_string(e.request) + R"(,"pid":1,"tid":0,"ts":)" +
             ts(e.start) + "}");
        break;
      case EventKind::kAdmission:
        emit(R"({"name":"admission","cat":"req","ph":"n","id":)" +
             std::to_string(e.request) + R"(,"pid":1,"tid":0,"ts":)" +
             ts(e.start) + R"(,"args":{"verdict":")" + detail +
             R"(","q_ppm":)" + std::to_string(e.value) + "}}");
        // Q estimate over time as a counter track.
        emit(R"({"name":"Q_ppm","ph":"C","pid":1,"ts":)" + ts(e.start) +
             R"(,"args":{"q_ppm":)" + std::to_string(e.value) + "}}");
        break;
      case EventKind::kRetrieval:
        emit(R"({"name":"request","cat":"req","ph":"e","id":)" +
             std::to_string(e.request) + R"(,"pid":1,"tid":0,"ts":)" +
             ts(e.end) + R"(,"args":{"path":")" + detail + R"(","rounds":)" +
             std::to_string(e.value) + "}}");
        break;
      case EventKind::kInterval:
        emit(R"({"name":"interval_admitted","ph":"C","pid":1,"ts":)" +
             ts(e.start) + R"(,"args":{"admitted":)" +
             std::to_string(e.value) + "}}");
        break;
      case EventKind::kStage:
        // Latency-attribution slices, one track per stage (tids above the
        // device tracks so they group together in Perfetto).
        emit(R"({"name":")" + detail +
             R"(","cat":"stage","ph":"X","pid":1,"tid":)" +
             std::to_string(1000 + static_cast<int>(e.detail)) + R"(,"ts":)" +
             ts(e.start) + R"(,"dur":)" + ts(e.end - e.start) +
             R"(,"args":{"request":)" + std::to_string(e.request) + "}}");
        break;
    }
  }
  out += "]\n";
  return out;
}

std::string to_prometheus(const TimeSeriesSnapshot& snap) {
  // Prometheus has no native windowed type; expose each series' most
  // recent window as gauges with the window index as a label, which is
  // what a scraper polling a live run wants (the full history is /series).
  std::ostringstream out;
  std::string last_family;
  const auto emit = [&](const std::string& family, const SeriesSnapshot& s,
                        const std::string& window_label, std::int64_t value) {
    if (family != last_family) {
      out << "# TYPE " << family << " gauge\n";
      last_family = family;
    }
    out << with_labels(family, s.labels, window_label) << " " << value << "\n";
  };
  for (const auto& s : snap.series) {
    if (s.points.empty()) continue;
    const SeriesPoint& p = s.points.back();
    const std::string base = prom_name("win." + s.name);
    const std::string window_label =
        "window=\"" + std::to_string(p.window) + "\"";
    emit(base + "_sum", s, window_label, p.sum);
    emit(base + "_count", s, window_label,
         static_cast<std::int64_t>(p.count));
    emit(base + "_min", s, window_label, p.min);
    emit(base + "_max", s, window_label, p.max);
  }
  return out.str();
}

std::string to_csv(const TimeSeriesSnapshot& snap) {
  std::ostringstream out;
  out << "name,labels,window,start_ns,width_ns,sum,count,min,max\n";
  for (const auto& s : snap.series) {
    const std::string prefix = csv_cell(s.name) + "," + csv_cell(s.labels) + ",";
    for (const auto& p : s.points) {
      out << prefix << p.window << "," << p.window * s.width << "," << s.width
          << "," << p.sum << "," << p.count << "," << p.min << "," << p.max
          << "\n";
    }
  }
  return out.str();
}

std::string to_chrome_trace(const TimeSeriesSnapshot& snap) {
  // One counter ("C") track per series: Perfetto plots sum-per-window over
  // simulated time. Timestamps are window starts in fractional µs.
  const auto ts = [](SimTime t) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                  static_cast<long long>(t / 1000),
                  static_cast<long long>(t % 1000));
    return std::string(buf);
  };
  std::string out = "[";
  bool first = true;
  for (const auto& s : snap.series) {
    std::string track;
    json_escape_into(track, s.name);
    if (!s.labels.empty()) {
      track += "{";
      json_escape_into(track, s.labels);
      track += "}";
    }
    for (const auto& p : s.points) {
      if (!first) out += ",\n";
      first = false;
      out += R"({"name":")" + track + R"(","ph":"C","pid":1,"ts":)" +
             ts(p.window * s.width) + R"(,"args":{"sum":)" +
             std::to_string(p.sum) + R"(,"count":)" + std::to_string(p.count) +
             "}}";
    }
  }
  out += "]\n";
  return out;
}

bool write_metrics(const MetricsSnapshot& snap, const std::string& path) {
  const bool csv = path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "obs: cannot open metrics output '%s'\n", path.c_str());
    return false;
  }
  out << (csv ? to_csv(snap) : to_prometheus(snap));
  return static_cast<bool>(out);
}

bool write_trace(const std::vector<TraceEvent>& events,
                 const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "obs: cannot open trace output '%s'\n", path.c_str());
    return false;
  }
  out << to_chrome_trace(events);
  return static_cast<bool>(out);
}

bool write_series(const TimeSeriesSnapshot& snap, const std::string& path) {
  const auto ends_with = [&](const char* suffix) {
    const std::string_view sv(suffix);
    return path.size() >= sv.size() &&
           path.compare(path.size() - sv.size(), sv.size(), sv) == 0;
  };
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "obs: cannot open series output '%s'\n", path.c_str());
    return false;
  }
  out << (ends_with(".csv")    ? to_csv(snap)
          : ends_with(".json") ? to_chrome_trace(snap)
                               : to_prometheus(snap));
  return static_cast<bool>(out);
}

namespace {
std::string g_metrics_out;  // NOLINT(cert-err58-cpp)
std::string g_trace_out;    // NOLINT(cert-err58-cpp)
std::string g_series_out;   // NOLINT(cert-err58-cpp)
}  // namespace

bool consume_output_flag(const char* arg) {
  constexpr std::string_view kMetrics = "--metrics-out=";
  constexpr std::string_view kTrace = "--trace-out=";
  constexpr std::string_view kSeries = "--series-out=";
  constexpr std::string_view kServe = "--serve-metrics=";
  const std::string_view view(arg);
  if (view.rfind(kMetrics, 0) == 0) {
    g_metrics_out = std::string(view.substr(kMetrics.size()));
    return true;
  }
  if (view.rfind(kTrace, 0) == 0) {
    g_trace_out = std::string(view.substr(kTrace.size()));
    Tracer::global().set_enabled(true);
    return true;
  }
  if (view.rfind(kSeries, 0) == 0) {
    g_series_out = std::string(view.substr(kSeries.size()));
    return true;
  }
  if (view.rfind(kServe, 0) == 0) {
    const std::string value(view.substr(kServe.size()));
    char* end = nullptr;
    const unsigned long port = std::strtoul(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || port > 65535) {
      std::fprintf(stderr, "obs: --serve-metrics expects a port (0 = ephemeral), got '%s'\n",
                   value.c_str());
      std::exit(2);
    }
    HttpExporter::Options opts;
    opts.port = static_cast<std::uint16_t>(port);
    auto& exporter = HttpExporter::global();
    if (!exporter.start(opts)) {
      std::fprintf(stderr, "obs: --serve-metrics failed: %s\n",
                   exporter.last_error().c_str());
      std::exit(1);
    }
    std::fprintf(stderr,
                 "obs: serving http://127.0.0.1:%u/metrics (/series, /slo)\n",
                 static_cast<unsigned>(exporter.port()));
    return true;
  }
  return false;
}

bool write_requested_outputs() {
  bool ok = true;
  if (!g_metrics_out.empty()) {
    ok = write_metrics(MetricRegistry::global().snapshot(), g_metrics_out) && ok;
  }
  if (!g_series_out.empty()) {
    ok = write_series(TimeSeriesRegistry::global().snapshot(), g_series_out) && ok;
  }
  if (!g_trace_out.empty()) {
    const auto& tracer = Tracer::global();
    ok = write_trace(tracer.events(), g_trace_out) && ok;
    if (tracer.dropped() > 0) {
      std::fprintf(stderr,
                   "obs: trace ring overflowed, %llu oldest events dropped\n",
                   static_cast<unsigned long long>(tracer.dropped()));
    }
  }
  return ok;
}

}  // namespace flashqos::obs
