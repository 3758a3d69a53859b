// Table IV — performance of FIM (apriori pair mining, set size 2).
//
// The paper reports mining time and peak memory of fim_apriori-lowmem on
// the largest and smallest intervals of each trace (Exchange: 14.3 K to
// 6.8 M requests; TPC-E: 104 K to 27.6 M), at supports 1 and 3. We mine the
// synthesized workload intervals at several scales and supports with our
// apriori implementation; absolute numbers differ from the 2012 Xeon, but
// the scaling shape (time and memory grow with input; higher support
// cheaper) is the reproduction target.
#include <chrono>
#include <cstdio>

#include "bench_flags.hpp"
#include "core/qos_pipeline.hpp"
#include "fim/apriori.hpp"
#include "trace/workload.hpp"
#include "util/memory.hpp"
#include "util/table.hpp"

using namespace flashqos;

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  print_banner("Table IV: performance of FIM (apriori, set size = 2, T = 0.133 ms)");
  Table table({"trace", "requests", "transactions", "support", "pairs",
               "time (s)", "peak mem (MB)"});

  struct Job {
    const char* label;
    trace::WorkloadParams params;
    std::uint64_t support;
  };
  // Small and large intervals of each workload (the paper's exch48/exch52
  // and tpce6/tpce3 pattern), plus the higher-support variant of the
  // largest input.
  // Smoke keeps the small/large/support contrast but shrinks every input.
  const double exs = smoke ? 0.2 : 1.0, exl = smoke ? 2.0 : 60.0;
  const double tps = smoke ? 0.1 : 0.5, tpl = smoke ? 1.0 : 25.0;
  std::vector<Job> jobs;
  jobs.push_back({"exch-small", trace::exchange_params(exs, 48), 1});
  jobs.push_back({"exch-large", trace::exchange_params(exl, 52), 1});
  jobs.push_back({"tpce-small", trace::tpce_params(tps, 6), 1});
  jobs.push_back({"tpce-large", trace::tpce_params(tpl, 3), 1});
  jobs.push_back({"tpce-large", trace::tpce_params(tpl, 3), 3});

  for (auto& job : jobs) {
    job.params.report_intervals = 1;  // one interval = one mining input
    const auto t = trace::generate_workload(job.params);
    // The replay's transaction rule: one transaction per QoS interval, the
    // whole trace one slice (these workloads have no writes to skip).
    core::SliceTransactions slices(kBaseInterval, 0);
    for (const auto& e : t.events) slices.add(e);
    slices.finish();
    const auto db = slices.take();
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = fim::mine_pairs_apriori(db, job.support);
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - t0;
    const auto peak_bytes = peak_rss_bytes();  // process VmHWM after the run
    table.add_row({job.label, std::to_string(res.total_items),
                   std::to_string(res.transactions),
                   std::to_string(job.support), std::to_string(res.pairs.size()),
                   Table::num(elapsed.count(), 3),
                   Table::num(static_cast<double>(peak_bytes) / 1e6, 1)});
  }
  table.print();
  std::printf("\npaper shape: time and memory grow with the interval's request "
              "count; raising the support shrinks both.\n");
  return 0;
}
