// Ablation — degraded-mode QoS: what does each device failure cost?
//
// The deterministic guarantee survives failures (admitted requests still
// finish in one service time; DESIGN.md invariant work); what degrades is
// throughput — fewer live replicas mean more requests miss the matching
// window and are deferred. This bench fails 0..3 of the (9,3,1) array's
// devices and reports the deferral/latency cost per failure, plus the
// number of permanently lost buckets when a whole design block's devices
// die.
#include <cstdio>

#include "bench_flags.hpp"
#include "core/qos_pipeline.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "trace/synthetic.hpp"
#include "util/table.hpp"

using namespace flashqos;

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  const auto d = design::make_9_3_1();
  const decluster::DesignTheoretic scheme(d, true);
  const auto t = trace::generate_synthetic({.bucket_pool = 36,
                                            .interval = kBaseInterval,
                                            .requests_per_interval = 4,
                                            .total_requests =
                                                smoke ? 3000u : 40000u,
                                            .seed = 2121});

  print_banner("Ablation: deterministic QoS under device failures, (9,3,1), "
               "4 requests / 0.133 ms");
  Table table({"failed devices", "% delayed", "avg delay (ms)", "violations",
               "lost requests"});
  const std::vector<std::vector<fault::DeviceFailure>> scenarios = {
      {},
      {{.device = 0, .fail_at = 0}},
      {{.device = 0, .fail_at = 0}, {.device = 4, .fail_at = 0}},
      // Three failures that do NOT cover any design block: (0,3,7) is not
      // a block of the (9,3,1) design, so nothing is lost.
      {{.device = 0, .fail_at = 0},
       {.device = 3, .fail_at = 0},
       {.device = 7, .fail_at = 0}},
      // Worst case: a whole design block's devices — block (0,1,2)'s three
      // rotated buckets become unreachable.
      {{.device = 0, .fail_at = 0},
       {.device = 1, .fail_at = 0},
       {.device = 2, .fail_at = 0}},
  };
  const std::vector<std::string> labels = {"0", "1 (d0)", "2 (d0,d4)",
                                           "3 (d0,d3,d7)", "3 (d0,d1,d2)"};
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    core::PipelineConfig cfg;
    cfg.retrieval = core::RetrievalMode::kOnline;
    cfg.admission = core::AdmissionMode::kDeterministic;
    cfg.mapping = core::MappingMode::kModulo;
    cfg.faults.outages = scenarios[i];
    const auto r = core::QosPipeline(scheme, cfg).run(t);
    table.add_row({labels[i], Table::pct(r.overall.pct_deferred, 2),
                   Table::num(r.overall.avg_delay_ms, 4),
                   std::to_string(r.deadline_violations),
                   std::to_string(r.overall.failed)});
  }
  table.print();
  std::printf("\nthe guarantee holds in every scenario (0 violations); "
              "failures cost deferrals, and only the loss of a complete "
              "design block loses data.\n");
  return 0;
}
