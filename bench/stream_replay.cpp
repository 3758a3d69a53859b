// Streaming replay at trace scale: throughput, memory flatness, and mmap
// file ingestion (BENCH_stream.json records the numbers for this host;
// `scripts/bench.sh stream` regenerates it from the machine-readable line).
//
// Three measurements, all single-thread:
//  (1) throughput — replay a synthetic full-volume stream through
//      QosPipeline::run_stream via the generator cursor (no
//      materialization anywhere); target >= 1M replayed requests/sec for
//      the online slot-matching path;
//  (2) memory flatness — the same stream at N and 10N requests, resident
//      set delta measured around each run; streaming memory is
//      O(batch + in-flight window), so the delta must not scale with N
//      (an in-memory materialized run at N is included for contrast);
//  (3) file ingestion — write the stream as DiskSim ASCII, replay it back
//      through the mmap-chunked DisksimCursor, parse included in the
//      timing.
//
// Before any timing is accepted, a small-scale identity gate checks
// run_stream against run() field for field (exact doubles) in both
// retrieval modes — a fast wrong replay would be worthless. The full
// identity contract (registry + time-series + batch sweep + misdrain
// mutation) is flashqos_verify --stream's job.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_flags.hpp"
#include "core/qos_pipeline.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "trace/cursor.hpp"
#include "trace/disksim_format.hpp"
#include "trace/stream_reader.hpp"
#include "trace/synthetic.hpp"
#include "util/memory.hpp"
#include "util/table.hpp"

using namespace flashqos;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double>(dt).count();
}

double mb(double bytes) { return bytes / (1024.0 * 1024.0); }

trace::SyntheticParams stream_params(const decluster::AllocationScheme& scheme,
                                     std::size_t total) {
  trace::SyntheticParams p;
  p.bucket_pool = scheme.buckets();
  // Stay inside the (9,3,1) per-interval access budget (S = 5 at M = 1):
  // an over-budget stream compounds deferral backlog interval over
  // interval, and the bench would measure queue growth, not replay.
  p.requests_per_interval = 4;
  p.total_requests = total;
  p.seed = 2026;
  return p;
}

core::PipelineConfig online_cfg() {
  core::PipelineConfig cfg;  // online deterministic, modulo mapping:
  cfg.mapping = core::MappingMode::kModulo;  // the slot-matching hot loop
  return cfg;
}

core::PipelineConfig aligned_cfg() {
  core::PipelineConfig cfg;  // aligned batches + FIM mining per interval
  cfg.retrieval = core::RetrievalMode::kIntervalAligned;
  return cfg;
}

/// Exact-equality identity gate on the shared result fields. The streaming
/// engine must take the identical floating-point path as run().
bool gate(const core::PipelineResult& want, const core::StreamResult& got) {
  const auto eq = [](const core::IntervalReport& a,
                     const core::IntervalReport& b) {
    return a.requests == b.requests && a.avg_response_ms == b.avg_response_ms &&
           a.max_response_ms == b.max_response_ms &&
           a.avg_e2e_ms == b.avg_e2e_ms && a.deferred == b.deferred &&
           a.avg_delay_ms == b.avg_delay_ms && a.failed == b.failed &&
           a.writes == b.writes;
  };
  if (got.requests != want.outcomes.size() ||
      got.deadline_violations != want.deadline_violations ||
      got.intervals.size() != want.intervals.size() ||
      !eq(want.overall, got.overall)) {
    return false;
  }
  for (std::size_t i = 0; i < want.intervals.size(); ++i) {
    if (!eq(want.intervals[i], got.intervals[i])) return false;
  }
  return true;
}

struct LegResult {
  std::uint64_t requests = 0;
  double seconds = 0.0;
  double delta_rss_bytes = 0.0;
};

LegResult run_leg(const decluster::AllocationScheme& scheme,
                  const core::PipelineConfig& cfg, trace::TraceCursor& cursor,
                  const core::StreamOptions& opts = {}) {
  core::QosPipeline pipe(scheme, cfg);
  const double before = static_cast<double>(current_rss_bytes());
  const auto t0 = std::chrono::steady_clock::now();
  const auto res = pipe.run_stream(cursor, nullptr, opts);
  LegResult leg;
  leg.seconds = seconds_since(t0);
  leg.delta_rss_bytes = static_cast<double>(current_rss_bytes()) - before;
  leg.requests = res.requests;
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  const auto d = design::make_9_3_1();
  const decluster::DesignTheoretic scheme(d, true);

  print_banner("Streaming replay: throughput, memory flatness, mmap ingestion");

  // Identity gate at smoke scale, both retrieval modes.
  {
    const auto p = stream_params(scheme, 5000);
    auto materialized = trace::generate_synthetic(p);
    for (const auto& cfg : {online_cfg(), aligned_cfg()}) {
      const auto want = core::QosPipeline(scheme, cfg).run(materialized);
      auto cursor = trace::make_synthetic_cursor(p);
      const auto got = core::QosPipeline(scheme, cfg).run_stream(*cursor);
      if (!gate(want, got)) {
        std::printf("FAILED: run_stream diverged from run() on the gate "
                    "trace; timings would be meaningless\n");
        return 1;
      }
    }
    std::printf("identity gate: run_stream == run() on %zu requests in both "
                "retrieval modes (exact doubles)\n", p.total_requests);
  }

  const std::size_t base_n = smoke ? 20'000 : 1'000'000;

  // (1) + (2): throughput and memory flatness at N and 10N, generator
  // cursor end to end (generation is part of the ingest cost).
  Table table({"leg", "requests", "seconds", "Mreq/s", "rss delta (MB)"});
  std::string legs_json;
  const auto add_leg = [&](const std::string& name, const LegResult& leg) {
    table.add_row({name, std::to_string(leg.requests),
                   Table::num(leg.seconds, 3),
                   Table::num(leg.requests / leg.seconds / 1e6, 3),
                   Table::num(mb(leg.delta_rss_bytes), 1)});
    char row[256];
    std::snprintf(row, sizeof row,
                  "%s{\"leg\":\"%s\",\"requests\":%llu,\"seconds\":%.6f,"
                  "\"rss_delta_mb\":%.3f}",
                  legs_json.empty() ? "" : ",", name.c_str(),
                  static_cast<unsigned long long>(leg.requests), leg.seconds,
                  mb(leg.delta_rss_bytes));
    legs_json += row;
  };

  {
    // Warm-up: registry instruments, allocator pools, code paths — so the
    // RSS deltas below measure the stream, not first-touch setup.
    auto warm = trace::make_synthetic_cursor(stream_params(scheme, 10'000));
    (void)run_leg(scheme, online_cfg(), *warm);
  }

  double online_reqps = 0.0;
  double delta_small = 0.0;
  double delta_large = 0.0;
  // The flatness legs run aggregate-only (keep_intervals = false): the
  // per-reporting-interval reports are the one result component that
  // grows with trace duration, and a trace-scale replay would not retain
  // millions of them. Replay state itself is O(batch + in-flight).
  {
    auto cursor = trace::make_synthetic_cursor(stream_params(scheme, base_n));
    const auto leg =
        run_leg(scheme, online_cfg(), *cursor, {.keep_intervals = false});
    delta_small = leg.delta_rss_bytes;
    add_leg("online stream N", leg);
  }
  {
    auto cursor =
        trace::make_synthetic_cursor(stream_params(scheme, 10 * base_n));
    const auto leg =
        run_leg(scheme, online_cfg(), *cursor, {.keep_intervals = false});
    delta_large = leg.delta_rss_bytes;
    online_reqps = leg.requests / leg.seconds;
    add_leg("online stream 10N", leg);
  }
  {
    auto cursor = trace::make_synthetic_cursor(stream_params(scheme, base_n));
    const auto leg = run_leg(scheme, aligned_cfg(), *cursor);
    add_leg("aligned+fim stream N", leg);
  }
  {
    // Contrast: materialize the same N-request trace, then run() — the
    // O(trace) events + outcomes the streaming path never allocates.
    const auto p = stream_params(scheme, base_n);
    const double before = static_cast<double>(current_rss_bytes());
    const auto t0 = std::chrono::steady_clock::now();
    const auto t = trace::generate_synthetic(p);
    const auto res = core::QosPipeline(scheme, online_cfg()).run(t);
    LegResult leg;
    leg.seconds = seconds_since(t0);
    leg.delta_rss_bytes = static_cast<double>(current_rss_bytes()) - before;
    leg.requests = res.outcomes.size();
    add_leg("materialized run() N", leg);
  }

  // (3) file ingestion: DiskSim ASCII written once, replayed through the
  // mmap-chunked cursor (parse included in the timing).
  const std::string path = smoke ? "stream_bench_smoke.trace"
                                 : "stream_bench.trace";
  {
    auto cursor = trace::make_synthetic_cursor(stream_params(scheme, base_n));
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::printf("FAILED: cannot write %s\n", path.c_str());
      return 1;
    }
    std::vector<trace::TraceEvent> buf(4096);
    std::size_t n;
    while ((n = cursor->fill(buf)) > 0) {
      for (std::size_t i = 0; i < n; ++i) {
        // One 8 KB block = 16 sectors, flags bit 0 = read — the exact
        // write_disksim_ascii encoding, emitted without materializing.
        std::fprintf(f, "%.6f %u %llu %u %u\n", to_ms(buf[i].time),
                     buf[i].device,
                     static_cast<unsigned long long>(buf[i].block),
                     buf[i].size_blocks * 16, buf[i].is_read ? 1u : 0u);
      }
    }
    std::fclose(f);
  }
  {
    const auto meta = trace::make_synthetic_cursor(stream_params(scheme, 1));
    auto cursor = trace::open_disksim_cursor(
        path, meta->meta().name, meta->meta().volumes,
        meta->meta().report_interval);
    const auto leg = run_leg(scheme, online_cfg(), *cursor,
                             {.keep_intervals = false});
    add_leg("disksim mmap file", leg);
    if (cursor->parse_errors() != 0) {
      std::printf("FAILED: %zu parse errors replaying the written file\n",
                  cursor->parse_errors());
      return 1;
    }
  }
  std::remove(path.c_str());

  table.print();
  const double peak_mb = mb(static_cast<double>(peak_rss_bytes()));
  std::printf("peak rss: %.1f MB\n", peak_mb);
  std::printf("memory flatness: 10x requests grew the resident delta by "
              "%.1f MB (streaming state is O(batch + in-flight), not "
              "O(trace))\n", mb(delta_large - delta_small));
  if (!smoke) {
    std::printf("throughput target (>= 1.0 Mreq/s online single-thread): "
                "%.3f Mreq/s — %s\n", online_reqps / 1e6,
                online_reqps >= 1e6 ? "met" : "NOT MET on this host");
  }
  std::printf("\nmachine-readable: {\"base_n\":%zu,\"legs\":[%s],\"peak_rss_mb\":%.3f}\n",
              base_n, legs_json.c_str(), peak_mb);
  return 0;
}
