// Micro — observability overhead on the replay hot path.
//
// Times the same replay mix with the registry live (this build's
// FLASHQOS_OBS setting is printed with the numbers) so the cost of the
// instrumentation can be compared across a -DFLASHQOS_OBS=ON and a
// -DFLASHQOS_OBS=OFF build of this driver. The acceptance target is < 3%
// overhead for ON vs OFF; BENCH_obs.json records one run of each.
//
// Three timed sections, repeated and min-of-N to shave scheduler noise:
//  (1) online replay   — the per-request dispatch loop (relaxed counter
//      increments are the only live instrumentation there);
//  (2) aligned replay  — batch retrieval, where the retrieval counters sit;
//  (3) outcome fold    — included in both, since the engine folds every
//      finalized outcome into the registry as it leaves the replay
//      window; its cost is part of what OFF elides.
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

  const int reps = smoke ? 2 : 7;
  const auto requests = synthetic.events.size() + exchange.events.size();

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
  const auto row = [&](const char* name, double s) {
    table.add_row({name, Table::num(s, 4),
                   Table::num(s * 1e9 / static_cast<double>(requests), 1)});
  };
  row("online replay", online_s);
  row("aligned replay", aligned_s);
  row(obs::kEnabled ? "online replay + tracer" : "online replay (tracer n/a)",
      traced_s);
  table.print();

  std::printf("\nmachine-readable: {\"obs\":\"%s\",\"requests\":%zu,"
              "\"online_s\":%.6f,\"aligned_s\":%.6f,\"traced_s\":%.6f}\n",
              obs::kEnabled ? "on" : "off", requests, online_s, aligned_s,
              traced_s);
  std::printf("compare against the opposite -DFLASHQOS_OBS build for the "
              "<3%% overhead target (BENCH_obs.json records both).\n");
  return 0;
}
