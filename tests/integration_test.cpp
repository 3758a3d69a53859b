// Cross-module integration tests: the paper's end-to-end scenarios run
// small, with exact expectations wherever the theory pins them down.
#include <gtest/gtest.h>

#include "core/qos_pipeline.hpp"
#include "core/sampler.hpp"
#include "decluster/schemes.hpp"
#include "design/catalog.hpp"
#include "design/constructions.hpp"
#include "trace/stats.hpp"
#include "trace/synthetic.hpp"
#include "trace/workload.hpp"

namespace flashqos {
namespace {

using core::AdmissionMode;
using core::MappingMode;
using core::PipelineConfig;
using core::QosPipeline;
using core::RetrievalMode;
using decluster::DesignTheoretic;

// Table III, distilled: on the synthetic at-the-limit workloads, the
// design-theoretic scheme never misses its deadline while RAID-1 mirrored
// does (its three-way groups serialize under batches of 14+).
TEST(Integration, DesignBeatsRaidOnSyntheticWorkload) {
  const auto t = trace::generate_synthetic({.bucket_pool = 36,
                                            .interval = 266 * kMicrosecond,
                                            .requests_per_interval = 14,
                                            .total_requests = 2800,
                                            .seed = 17});
  PipelineConfig cfg;
  cfg.qos_interval = 266 * kMicrosecond;
  cfg.access_budget = 2;
  cfg.retrieval = RetrievalMode::kIntervalAligned;
  cfg.admission = AdmissionMode::kNone;  // pure allocation comparison
  cfg.mapping = MappingMode::kModulo;

  const auto d = design::make_9_3_1();
  const DesignTheoretic design_scheme(d, true);
  const decluster::Raid1Mirrored mirrored(9, 3, 36);

  const auto r_design = QosPipeline(design_scheme, cfg).run(t);
  const auto r_mirror = QosPipeline(mirrored, cfg).run(t);

  EXPECT_EQ(r_design.deadline_violations, 0u)
      << "(9,3,1) must retrieve any 14 buckets in 2 accesses";
  EXPECT_GT(r_mirror.deadline_violations, 0u)
      << "mirrored groups serialize 14-request batches";
  EXPECT_LT(r_design.overall.max_response_ms, r_mirror.overall.max_response_ms);
  EXPECT_LE(r_design.overall.avg_response_ms, r_mirror.overall.avg_response_ms);
}

// Fig 8/9 distilled: deterministic QoS keeps every admitted request within
// the guarantee while the original stand violates it.
TEST(Integration, ExchangeLikeDeterministicQos) {
  auto p = trace::exchange_params(1.0, 21);
  p.report_intervals = 8;
  const auto t = trace::generate_workload(p);
  ASSERT_GT(t.events.size(), 500u);

  const auto orig = core::replay_original(t);
  EXPECT_GT(orig.deadline_violations, 0u) << "original stand must queue";

  const auto d = design::make_9_3_1();
  const DesignTheoretic scheme(d, true);
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kOnline;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kFim;
  const auto qos = QosPipeline(scheme, cfg).run(t);

  EXPECT_LT(qos.overall.avg_response_ms, orig.overall.avg_response_ms);
  EXPECT_LT(qos.overall.max_response_ms, orig.overall.max_response_ms);
  // Deterministic QoS defers some requests rather than violating.
  EXPECT_GT(qos.overall.deferred, 0u);
  EXPECT_LT(qos.overall.pct_deferred, 0.5);
}

// Fig 10 distilled: larger ε defers fewer requests and yields a response
// time at least as large.
TEST(Integration, StatisticalQosEpsilonTradeoff) {
  auto p = trace::tpce_params(0.2, 23);
  const auto t = trace::generate_workload(p);
  const auto d = design::make_13_3_1();
  const DesignTheoretic scheme(d, true);
  const auto p_table =
      core::sample_optimal_probabilities(scheme, 40, {.samples_per_size = 400});

  double prev_deferred = 1.0;
  std::vector<double> deferred_rates;
  for (const double eps : {0.0, 0.2, 0.8}) {
    PipelineConfig cfg;
    cfg.retrieval = RetrievalMode::kOnline;
    cfg.admission = AdmissionMode::kStatistical;
    cfg.mapping = MappingMode::kFim;
    cfg.epsilon = eps;
    cfg.p_table = p_table;
    const auto r = QosPipeline(scheme, cfg).run(t);
    deferred_rates.push_back(r.overall.pct_deferred);
  }
  EXPECT_GE(deferred_rates[0], deferred_rates[1]);
  EXPECT_GE(deferred_rates[1], deferred_rates[2]);
  (void)prev_deferred;
}

// Fig 12 distilled: online retrieval introduces less delay than
// interval-aligned design-theoretic retrieval on the same trace.
TEST(Integration, OnlineBeatsAlignedOnDelay) {
  auto p = trace::exchange_params(1.0, 29);
  p.report_intervals = 6;
  const auto t = trace::generate_workload(p);
  const auto d = design::make_9_3_1();
  const DesignTheoretic scheme(d, true);

  PipelineConfig online_cfg;
  online_cfg.retrieval = RetrievalMode::kOnline;
  online_cfg.admission = AdmissionMode::kDeterministic;
  online_cfg.mapping = MappingMode::kFim;
  PipelineConfig aligned_cfg = online_cfg;
  aligned_cfg.retrieval = RetrievalMode::kIntervalAligned;

  const auto r_online = QosPipeline(scheme, online_cfg).run(t);
  const auto r_aligned = QosPipeline(scheme, aligned_cfg).run(t);

  // Aligned mode defers every off-boundary arrival; online only the
  // admission overflow.
  EXPECT_GT(r_aligned.overall.pct_deferred, r_online.overall.pct_deferred);
  // Mean delay over all requests is strictly smaller online.
  const auto total_delay = [](const core::PipelineResult& r) {
    double sum = 0.0;
    for (const auto& o : r.outcomes) sum += to_ms(o.delay());
    return sum / static_cast<double>(r.outcomes.size());
  };
  EXPECT_LT(total_delay(r_online), total_delay(r_aligned));
}

// Catalog-driven deployment: pick a design from a QoS requirement and run
// it end to end.
TEST(Integration, CatalogChosenDesignHonoursItsGuarantee) {
  const auto pick = design::choose_design({.max_requests_per_interval = 14,
                                           .access_budget = 2});
  ASSERT_TRUE(pick.has_value());
  const auto d = pick->make();
  const DesignTheoretic scheme(d, true);
  const auto t = trace::generate_synthetic({.bucket_pool = scheme.buckets(),
                                            .interval = 266 * kMicrosecond,
                                            .requests_per_interval = 14,
                                            .total_requests = 1400,
                                            .seed = 31});
  PipelineConfig cfg;
  cfg.qos_interval = 266 * kMicrosecond;
  cfg.access_budget = 2;
  cfg.retrieval = RetrievalMode::kIntervalAligned;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  const auto r = QosPipeline(scheme, cfg).run(t);
  EXPECT_EQ(r.deadline_violations, 0u);
  EXPECT_EQ(r.overall.deferred, 0u);
}

// Trace statistics feed Fig 6; sanity-check they reflect the rate curve.
TEST(Integration, WorkloadStatsFollowRateCurve) {
  auto p = trace::exchange_params(0.25, 37);
  p.report_intervals = 48;
  const auto t = trace::generate_workload(p);
  const auto stats = trace::interval_stats(t, t.report_interval / 20);
  ASSERT_EQ(stats.size(), 48u);
  // The diurnal curve has distinctly busy and quiet intervals.
  double lo = 1e18, hi = 0.0;
  for (const auto& s : stats) {
    lo = std::min(lo, s.avg_reads_per_sec);
    hi = std::max(hi, s.avg_reads_per_sec);
  }
  EXPECT_GT(hi, 2.0 * lo) << "rate curve must modulate the load";
  for (const auto& s : stats) {
    EXPECT_GE(s.max_reads_per_sec, s.avg_reads_per_sec * 0.99);
  }
}

// FIM match ratios land in the bands the paper reports (17% / 87%).
TEST(Integration, FimMatchRatesDistinguishWorkloads) {
  auto pe = trace::exchange_params(1.0, 41);
  pe.report_intervals = 12;
  auto pt = trace::tpce_params(0.5, 41);
  const auto te = trace::generate_workload(pe);
  const auto tt = trace::generate_workload(pt);

  const auto d9 = design::make_9_3_1();
  const auto d13 = design::make_13_3_1();
  const DesignTheoretic s9(d9, true);
  const DesignTheoretic s13(d13, true);

  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kOnline;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kFim;

  const auto re = QosPipeline(s9, cfg).run(te);
  const auto rt = QosPipeline(s13, cfg).run(tt);

  // Skip interval 0 (no mining history) when averaging.
  const auto avg_match = [](const core::PipelineResult& r) {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 1; i < r.intervals.size(); ++i) {
      if (r.intervals[i].requests == 0) continue;
      sum += r.intervals[i].fim_match_rate;
      ++n;
    }
    return n ? sum / static_cast<double>(n) : 0.0;
  };
  const double exchange_match = avg_match(re);
  const double tpce_match = avg_match(rt);
  EXPECT_GT(exchange_match, 0.05);
  EXPECT_LT(exchange_match, 0.40);
  EXPECT_GT(tpce_match, 0.70);
  EXPECT_GT(tpce_match, exchange_match * 2.0);
}

}  // namespace
}  // namespace flashqos
