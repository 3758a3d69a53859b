// Micro — sweep sharding scaling at 1/2/4/8 threads.
//
// A mixed-configuration job list (the shape core::run_experiments
// produces) through ParallelReplayEngine::run_jobs, against the same jobs
// run one after another on the serial QosPipeline. Every sharded result is
// checked bit-identical to the serial baseline before its time is
// reported — a fast wrong replay would be worthless.
//
// Speedup is bounded by the host: on a single-core container every thread
// count serializes and the sweep numbers show parallel overhead instead of
// speedup. The printed hardware_concurrency line is part of the output so
// recorded numbers carry that context with them.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_flags.hpp"
#include "core/parallel_replay.hpp"
#include "core/qos_pipeline.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "trace/synthetic.hpp"
#include "trace/workload.hpp"
#include "util/table.hpp"
#include "verify/result_compare.hpp"

using namespace flashqos;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double>(dt).count();
}

struct Workload {
  std::vector<trace::Trace> traces;
  std::vector<core::ReplayJob> jobs;
};

Workload build_jobs(const decluster::AllocationScheme& scheme, bool smoke) {
  Workload w;
  const double scale = smoke ? 0.02 : 0.25;
  w.traces.push_back(
      trace::generate_workload(trace::exchange_params(scale, 2012)));
  trace::SyntheticParams sp;
  sp.bucket_pool = scheme.buckets();
  sp.requests_per_interval = 5;
  sp.total_requests = smoke ? 1500 : 20000;
  sp.seed = 2012;
  w.traces.push_back(trace::generate_synthetic(sp));

  // The mode mix a figure-sweep produces: retrieval x mapping x admission.
  for (const auto& t : w.traces) {
    for (const auto retrieval : {core::RetrievalMode::kOnline,
                                 core::RetrievalMode::kIntervalAligned}) {
      for (const auto mapping :
           {core::MappingMode::kFim, core::MappingMode::kModulo}) {
        for (const auto admission : {core::AdmissionMode::kDeterministic,
                                     core::AdmissionMode::kNone}) {
          core::PipelineConfig cfg;
          cfg.retrieval = retrieval;
          cfg.mapping = mapping;
          cfg.admission = admission;
          w.jobs.push_back({&scheme, &t, cfg});
        }
      }
    }
  }
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  const auto d = design::make_9_3_1();
  const decluster::DesignTheoretic scheme(d, true);
  const auto w = build_jobs(scheme, smoke);

  print_banner("Parallel replay scaling: sharded sweep");
  std::printf("host: hardware_concurrency = %u (speedup is bounded by "
              "physical cores, not requested threads)\n",
              std::thread::hardware_concurrency());
  std::printf("sweep: %zu jobs over %zu traces\n", w.jobs.size(),
              w.traces.size());

  // Serial baseline: one QosPipeline per job, same order.
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<core::PipelineResult> baseline;
  baseline.reserve(w.jobs.size());
  for (const auto& j : w.jobs) {
    baseline.push_back(core::QosPipeline(*j.scheme, j.config).run(*j.trace));
  }
  const double serial_sweep = seconds_since(t0);

  Table table({"threads", "sweep (s)", "sweep speedup"});
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    core::ParallelReplayEngine engine({.threads = threads});

    const auto s0 = std::chrono::steady_clock::now();
    const auto swept = engine.run_jobs(w.jobs);
    const double sweep_time = seconds_since(s0);

    // Correctness gate: a result that differs from serial disqualifies the
    // timing. results_identical is exact (bit-level doubles).
    std::string why;
    for (std::size_t i = 0; i < swept.size(); ++i) {
      if (!verify::results_identical(baseline[i], swept[i], &why)) {
        std::printf("FAILED: sweep job %zu at %zu threads diverged: %s\n", i,
                    threads, why.c_str());
        return 1;
      }
    }

    table.add_row({std::to_string(threads), Table::num(sweep_time, 3),
                   Table::num(serial_sweep / sweep_time, 2)});
  }
  std::printf("serial baseline: sweep %.3f s\n", serial_sweep);
  table.print();
  std::printf("\nall sharded results verified bit-identical to the serial "
              "engine before timing was accepted.\n");
  return 0;
}
