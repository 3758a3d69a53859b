// Micro — observability overhead on the replay hot path.
//
// Times the same replay mix with the registry live (this build's
// FLASHQOS_OBS setting is printed with the numbers) so the cost of the
// instrumentation can be compared across a -DFLASHQOS_OBS=ON and a
// -DFLASHQOS_OBS=OFF build of this driver. The acceptance target is < 3%
// overhead for ON vs OFF; BENCH_obs.json records one run of each.
//
// Timed sections, repeated and min-of-N to shave scheduler noise:
//  (1) online replay   — the per-request dispatch loop, whose live
//      instrumentation is core::ReplayObs's plain single-writer tallies:
//      a dispatch count, the device-op tallies and the open QoS window's
//      series tallies per served read, and per QoS window a close of the
//      series that window touched (no atomic operation or lock per
//      request);
//  (2) aligned replay  — batch retrieval, where the retrieval counters sit;
//  (3) over budget     — an ON/OFF stream shaped like perfbench's
//      onoff_overload (64 intervals of 10 distinct buckets, 2 x S on
//      (9,3,1), then 128 idle), online: deferral-heavy outcomes spread the
//      e2e/queue/delay histograms over many distinct values;
//  (4) window per instant — one read per QoS interval, aligned: every
//      dispatch instant rolls a time-series window;
//  (5) outcome fold    — included in all: every finalized outcome is
//      compared with the pending run of equal outcomes (same path and
//      stage latencies) as it leaves the replay window, and each run folds
//      into the loop and latency tallies once; its cost is part of what
//      OFF elides.
//
// Within a single build the driver also reports the *tracing* overhead
// (tracer enabled vs disabled), which is measurable in-process because the
// tracer gate is a runtime flag.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_flags.hpp"
#include "core/qos_pipeline.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "trace/synthetic.hpp"
#include "trace/workload.hpp"
#include "util/table.hpp"

using namespace flashqos;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double>(dt).count();
}

/// Min over `reps` timed runs of `body` (each run replays every request).
template <typename F>
double min_seconds(int reps, F&& body) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  const auto d = design::make_9_3_1();
  const decluster::DesignTheoretic scheme(d, true);

  const auto exchange = trace::generate_workload(
      trace::exchange_params(smoke ? 0.02 : 0.25, 2012));
  trace::SyntheticParams sp;
  sp.bucket_pool = scheme.buckets();
  sp.requests_per_interval = 5;
  sp.total_requests = smoke ? 1500 : 50000;
  sp.seed = 2012;
  const auto synthetic = trace::generate_synthetic(sp);

  // Over budget: 10 distinct buckets at each of 64 interval starts, then
  // 128 idle intervals, repeated.
  constexpr std::size_t kOn = 64, kOff = 128, kPerInterval = 10;
  sp.requests_per_interval = kPerInterval;
  auto overload = trace::generate_synthetic(sp);
  for (std::size_t i = 0; i < overload.events.size(); ++i) {
    const std::size_t interval = i / kPerInterval;
    overload.events[i].time = static_cast<SimTime>(
        (interval / kOn) * (kOn + kOff) + interval % kOn) * sp.interval;
  }
  // One read per QoS interval: every dispatch instant is a new window.
  sp.requests_per_interval = 1;
  const auto sparse = trace::generate_synthetic(sp);

  const int reps = smoke ? 2 : 7;
  const auto requests = synthetic.events.size() + exchange.events.size();
  const auto per_leg = synthetic.events.size();  // the two new legs' size

  core::PipelineConfig online;  // slot matching — the tightest loop
  core::PipelineConfig aligned;
  aligned.retrieval = core::RetrievalMode::kIntervalAligned;

  print_banner("Observability overhead on the replay hot path");
  std::printf("build: FLASHQOS_OBS=%s | traces: %zu requests | min of %d reps\n",
              obs::kEnabled ? "ON" : "OFF", requests, reps);

  const auto replay_both = [&](const core::PipelineConfig& cfg) {
    (void)core::QosPipeline(scheme, cfg).run(synthetic);
    (void)core::QosPipeline(scheme, cfg).run(exchange);
  };

  obs::Tracer::global().set_enabled(false);
  const double online_s = min_seconds(reps, [&] { replay_both(online); });
  const double aligned_s = min_seconds(reps, [&] { replay_both(aligned); });
  const double overload_s = min_seconds(
      reps, [&] { (void)core::QosPipeline(scheme, online).run(overload); });
  const double sparse_s = min_seconds(
      reps, [&] { (void)core::QosPipeline(scheme, aligned).run(sparse); });

  // Tracing on top (runtime gate; only meaningful when compiled in). The
  // ring is cleared between runs so every rep pays the same record cost.
  obs::Tracer::global().set_enabled(obs::kEnabled);
  const double traced_s = min_seconds(reps, [&] {
    obs::Tracer::global().clear();
    replay_both(online);
  });
  obs::Tracer::global().set_enabled(false);
  obs::Tracer::global().clear();

  Table table({"section", "time (s)", "ns/request"});
  const auto row = [&](const char* name, double s, std::size_t n) {
    table.add_row({name, Table::num(s, 4),
                   Table::num(s * 1e9 / static_cast<double>(n), 1)});
  };
  row("online replay", online_s, requests);
  row("aligned replay", aligned_s, requests);
  row("over budget (on/off, online)", overload_s, per_leg);
  row("window per instant (aligned)", sparse_s, per_leg);
  row(obs::kEnabled ? "online replay + tracer" : "online replay (tracer n/a)",
      traced_s, requests);
  table.print();

  std::printf("\nmachine-readable: {\"obs\":\"%s\",\"requests\":%zu,"
              "\"leg_requests\":%zu,\"online_s\":%.6f,\"aligned_s\":%.6f,"
              "\"overload_s\":%.6f,\"sparse_s\":%.6f,\"traced_s\":%.6f}\n",
              obs::kEnabled ? "on" : "off", requests, per_leg, online_s, aligned_s,
              overload_s, sparse_s, traced_s);
  std::printf("compare against the opposite -DFLASHQOS_OBS build for the "
              "<3%% overhead target (BENCH_obs.json records both).\n");
  return 0;
}
