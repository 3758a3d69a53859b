// Exporters for metric snapshots and trace rings.
//
//  * to_prometheus — text exposition format (one flashqos_-prefixed family
//    per instrument; histograms expand to _bucket{le=}/_sum/_count plus
//    exact-quantile gauges when available).
//  * to_csv — flat rows (kind,name,labels,stat,value) for spreadsheets.
//  * to_chrome_trace — Chrome trace_event JSON array, viewable in
//    Perfetto / about:tracing: device service intervals as complete ("X")
//    slices on per-device tracks, request lifecycles as async ("b"/"e")
//    spans, and Q estimates as counter ("C") series. Timestamps are
//    simulated microseconds.
//
// Windowed time-series (obs v2) export the same three ways: Prometheus
// gauges of each series' latest window, flat CSV rows (one per window),
// and Chrome counter ("C") tracks that plot every series over simulated
// time in Perfetto.
//
// Output helpers (`write_metrics`/`write_trace`/`write_series`) pick the
// format from the file extension and are what --metrics-out= /
// --trace-out= / --series-out= route through; `consume_output_flag` +
// `write_requested_outputs` give every CLI the same flags without
// per-driver plumbing. `--serve-metrics=PORT` (same plumbing) starts the
// live HTTP exporter (obs/http_exporter.hpp) instead of writing a file.
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/tracer.hpp"

namespace flashqos::obs {

[[nodiscard]] std::string to_prometheus(const MetricsSnapshot& snap);
[[nodiscard]] std::string to_csv(const MetricsSnapshot& snap);
[[nodiscard]] std::string to_chrome_trace(const std::vector<TraceEvent>& events);

[[nodiscard]] std::string to_prometheus(const TimeSeriesSnapshot& snap);
[[nodiscard]] std::string to_csv(const TimeSeriesSnapshot& snap);
[[nodiscard]] std::string to_chrome_trace(const TimeSeriesSnapshot& snap);

/// Write the snapshot to `path`: ".csv" → CSV, anything else → Prometheus
/// text. Returns false (with a message to stderr) when the file cannot be
/// written.
bool write_metrics(const MetricsSnapshot& snap, const std::string& path);

/// Write the events to `path` as Chrome trace JSON.
bool write_trace(const std::vector<TraceEvent>& events, const std::string& path);

/// Write the series snapshot to `path`: ".csv" → CSV, ".json" → Chrome
/// counter tracks, anything else → Prometheus text.
bool write_series(const TimeSeriesSnapshot& snap, const std::string& path);

/// Shared CLI plumbing: if `arg` is --metrics-out=<path>,
/// --trace-out=<path>, --series-out=<path>, or --serve-metrics=<port>,
/// act on it (remember the path; enable the global tracer for
/// --trace-out; start the live HTTP exporter for --serve-metrics, exiting
/// with a diagnostic if the socket cannot be bound) and return true;
/// otherwise return false. Thread-unsafe by design — call from main()
/// during argument parsing.
bool consume_output_flag(const char* arg);

/// Write the global registry / tracer to the captured paths, if any.
/// Returns false if any requested write failed.
bool write_requested_outputs();

}  // namespace flashqos::obs
