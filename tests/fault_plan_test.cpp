// The fault-plan API: seeded compile determinism, the rebuild reads
// compile() plans, [faults] config parsing, validate() diagnostics, and
// the pipeline behaviours the plan drives end to end — hot-spare rebuild
// recovery, retry timeouts, latency spikes.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "core/experiment.hpp"
#include "core/qos_pipeline.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "trace/synthetic.hpp"
#include "util/config.hpp"

namespace flashqos {
namespace {

using core::AdmissionMode;
using core::MappingMode;
using core::PipelineConfig;
using core::QosPipeline;
using core::RetrievalMode;
using decluster::DesignTheoretic;

const DesignTheoretic& scheme931() {
  static const auto d = design::make_9_3_1();
  static const DesignTheoretic s(d, true);
  return s;
}

Config config_from(const std::string& body) {
  std::istringstream in(body);
  return Config::parse(in);
}

trace::Trace light_trace(std::size_t total = 480) {
  trace::SyntheticParams sp;
  sp.bucket_pool = scheme931().buckets();
  sp.requests_per_interval = 4;
  sp.total_requests = total;
  sp.seed = 11;
  return trace::generate_synthetic(sp);
}

TEST(FaultPlan, CompileIsDeterministicPerSeed) {
  fault::FaultPlan plan;
  plan.transient = {.count = 4, .mean_duration = 2 * kMillisecond};
  plan.latency_spike = {.count = 3, .mean_duration = kMillisecond, .factor = 3.0};
  plan.seed = 42;
  const SimTime horizon = 50 * kMillisecond;

  const auto a = fault::compile(plan, scheme931(), horizon);
  const auto b = fault::compile(plan, scheme931(), horizon);
  ASSERT_EQ(a.outages.size(), b.outages.size());
  ASSERT_EQ(a.outages.size(), 4u);
  for (std::size_t i = 0; i < a.outages.size(); ++i) {
    EXPECT_EQ(a.outages[i].device, b.outages[i].device);
    EXPECT_EQ(a.outages[i].fail_at, b.outages[i].fail_at);
    EXPECT_EQ(a.outages[i].recover_at, b.outages[i].recover_at);
  }
  ASSERT_EQ(a.spikes.size(), 3u);
  for (std::size_t i = 0; i < a.spikes.size(); ++i) {
    EXPECT_EQ(a.spikes[i].device, b.spikes[i].device);
    EXPECT_EQ(a.spikes[i].start, b.spikes[i].start);
    EXPECT_DOUBLE_EQ(a.spikes[i].factor, b.spikes[i].factor);
  }

  plan.seed = 43;
  const auto c = fault::compile(plan, scheme931(), horizon);
  bool any_differs = false;
  for (std::size_t i = 0; i < c.outages.size(); ++i) {
    any_differs |= c.outages[i].device != a.outages[i].device ||
                   c.outages[i].fail_at != a.outages[i].fail_at;
  }
  EXPECT_TRUE(any_differs) << "different seeds must place different outages";
}

TEST(FaultPlan, SpikeGenerationIndependentOfOutageGeneration) {
  // Adding spikes to a plan must not move the outage windows of the same
  // seed (distinct generator streams).
  fault::FaultPlan plan;
  plan.transient = {.count = 3, .mean_duration = kMillisecond};
  plan.seed = 7;
  const auto without = fault::compile(plan, scheme931(), 20 * kMillisecond);
  plan.latency_spike = {.count = 5, .mean_duration = kMillisecond, .factor = 2.0};
  const auto with = fault::compile(plan, scheme931(), 20 * kMillisecond);
  ASSERT_EQ(without.outages.size(), with.outages.size());
  for (std::size_t i = 0; i < without.outages.size(); ++i) {
    EXPECT_EQ(without.outages[i].device, with.outages[i].device);
    EXPECT_EQ(without.outages[i].fail_at, with.outages[i].fail_at);
  }
}

TEST(FaultPlan, RebuildReadsCoverBalanceAndPaceTheLostCopies) {
  // (9,3,1) with rotations: every device holds 12 buckets, and each of the
  // 8 others shares 3 of them. At 1000 pages/s the rebuild reads every
  // lost bucket once, from a surviving replica chosen by min load, 1 ms
  // apart after the failure.
  const auto& s = scheme931();
  for (const DeviceId failed : {DeviceId{4}, DeviceId{7}}) {
    fault::FaultPlan plan;
    plan.outages.push_back({.device = failed, .fail_at = 0});
    plan.rebuild.pages_per_second = 1000.0;
    const auto compiled = fault::compile(plan, s, 100 * kMillisecond);

    std::vector<BucketId> lost;
    std::vector<std::size_t> load(s.devices(), 0);
    std::vector<bool> candidate(s.devices(), false);
    for (BucketId b = 0; b < s.buckets(); ++b) {
      const auto reps = s.replicas(b);
      if (std::find(reps.begin(), reps.end(), failed) == reps.end()) continue;
      lost.push_back(b);
      for (const auto d : reps) {
        if (d != failed) candidate[d] = true;
      }
    }
    ASSERT_EQ(lost.size(), 12u) << "device " << failed;
    ASSERT_EQ(compiled.reads.size(), lost.size()) << "device " << failed;

    std::vector<BucketId> read_buckets;
    for (std::size_t i = 0; i < compiled.reads.size(); ++i) {
      const auto& r = compiled.reads[i];
      EXPECT_EQ(r.time, static_cast<SimTime>(i + 1) * kMillisecond)
          << "device " << failed << " read " << i;
      const auto reps = s.replicas(r.bucket);
      EXPECT_NE(r.source, failed) << "device " << failed << " read " << i;
      EXPECT_NE(std::find(reps.begin(), reps.end(), r.source), reps.end())
          << "device " << failed << " read " << i << " from a non-replica";
      read_buckets.push_back(r.bucket);
      ++load[r.source];
    }
    std::sort(read_buckets.begin(), read_buckets.end());
    EXPECT_EQ(read_buckets, lost) << "device " << failed;

    std::vector<std::size_t> source_loads;
    for (DeviceId d = 0; d < s.devices(); ++d) {
      if (candidate[d]) source_loads.push_back(load[d]);
    }
    ASSERT_EQ(source_loads.size(), 8u) << "device " << failed;
    const auto [lo, hi] =
        std::minmax_element(source_loads.begin(), source_loads.end());
    EXPECT_LE(*hi - *lo, 1u) << "device " << failed << " source loads " << *lo
                             << ".." << *hi;
  }
}

TEST(FaultPlan, ValidateNamesTheProblem) {
  fault::FaultPlan plan;
  plan.outages.push_back({.device = 2, .fail_at = 10, .recover_at = 5});
  plan.outages.push_back({.device = 99, .fail_at = 0, .recover_at = 10});
  plan.outages.push_back({.device = 3, .fail_at = 0, .recover_at = 20});
  plan.outages.push_back({.device = 3, .fail_at = 10, .recover_at = 30});
  plan.spikes.push_back({.device = 1, .start = 0, .end = 10, .factor = -1.0});
  plan.retry.timeout = 0;
  const auto diags = plan.validate(scheme931().devices());
  const auto mentions = [&](const char* needle) {
    return std::any_of(diags.begin(), diags.end(), [&](const std::string& d) {
      return d.find(needle) != std::string::npos;
    });
  };
  EXPECT_TRUE(mentions("empty window"));
  EXPECT_TRUE(mentions("out of range"));
  EXPECT_TRUE(mentions("overlapping outage windows on device 3"));
  EXPECT_TRUE(mentions("non-positive factor"));
  EXPECT_TRUE(mentions("retry timeout"));
}

TEST(PipelineConfigValidate, CatchesIncoherentConfigs) {
  PipelineConfig cfg;
  EXPECT_TRUE(cfg.validate(9).empty());
  cfg.access_budget = 0;
  cfg.qos_interval = 0;
  cfg.admission = AdmissionMode::kStatistical;  // no p_table supplied
  const auto diags = cfg.validate(9);
  EXPECT_GE(diags.size(), 3u);
  const auto mentions = [&](const char* needle) {
    return std::any_of(diags.begin(), diags.end(), [&](const std::string& d) {
      return d.find(needle) != std::string::npos;
    });
  };
  EXPECT_TRUE(mentions("access_budget"));
  EXPECT_TRUE(mentions("qos_interval"));
  EXPECT_TRUE(mentions("p_table"));
}

TEST(PipelineConfigValidate, ConstructorRejectsInvalidConfig) {
  PipelineConfig cfg;
  cfg.faults.outages.push_back({.device = 0, .fail_at = 5, .recover_at = 5});
  EXPECT_DEATH((void)QosPipeline(scheme931(), cfg), "invalid pipeline");
}

TEST(FaultConfig, FaultsSectionParsesTheFullPlan) {
  const auto e = core::build_experiment(config_from(
      "[workload]\nkind = synthetic\ntotal_requests = 10\n"
      "[faults]\n"
      "fail = 2 1.0 4.0\n"
      "spike = 1 0.5 2.5 4.0\n"
      "transient = 3 2.0\n"
      "latency_spike = 2 1.5 3.0\n"
      "rebuild = 25000\n"
      "retry_timeout_ms = 12.5\n"
      "seed = 99\n"));
  const auto& plan = e.pipeline.faults;
  ASSERT_EQ(plan.outages.size(), 1u);
  EXPECT_EQ(plan.outages[0].device, 2u);
  ASSERT_EQ(plan.spikes.size(), 1u);
  EXPECT_EQ(plan.spikes[0].start, from_ms(0.5));
  EXPECT_DOUBLE_EQ(plan.spikes[0].factor, 4.0);
  EXPECT_EQ(plan.transient.count, 3u);
  EXPECT_EQ(plan.transient.mean_duration, 2 * kMillisecond);
  EXPECT_EQ(plan.latency_spike.count, 2u);
  EXPECT_DOUBLE_EQ(plan.latency_spike.factor, 3.0);
  EXPECT_DOUBLE_EQ(plan.rebuild.pages_per_second, 25000.0);
  EXPECT_EQ(plan.retry.timeout, from_ms(12.5));
  EXPECT_EQ(plan.seed, 99u);
}

TEST(FaultPipeline, RebuildBringsAPermanentFailureBack) {
  // Without rebuild a permanent failure stays down forever; with a rebuild
  // policy the compiled plan folds the recovery instant in, and the
  // pipeline routes to the device again after the rebuild completes.
  PipelineConfig cfg;
  cfg.mapping = MappingMode::kModulo;
  cfg.faults.outages.push_back({.device = 4,
                                .fail_at = 0,
                                .recover_at = fault::DeviceFailure::kNeverRecovers});
  cfg.faults.rebuild.pages_per_second = 50000.0;
  const auto t = light_trace(2000);

  const SimTime horizon = t.events.back().time + cfg.qos_interval;
  const auto compiled = fault::compile(cfg.faults, scheme931(), horizon);
  ASSERT_EQ(compiled.rebuilds.size(), 1u);
  EXPECT_TRUE(compiled.rebuilds[0].completed);
  EXPECT_GT(compiled.rebuilds[0].reads, 0u);
  ASSERT_EQ(compiled.outages.size(), 1u);
  ASSERT_NE(compiled.outages[0].recover_at, fault::DeviceFailure::kNeverRecovers);
  const SimTime done = compiled.outages[0].recover_at;
  EXPECT_LT(done, t.events.back().time) << "rebuild must finish inside the trace";

  const auto r = QosPipeline(scheme931(), cfg).run(t);
  EXPECT_EQ(r.overall.failed, 0u);
  bool used_after_rebuild = false;
  for (const auto& o : r.outcomes) {
    if (o.failed) continue;
    if (o.device == 4 && o.dispatch < done) {
      ADD_FAILURE() << "device 4 served a read at t=" << o.dispatch
                    << " before its rebuild finished at t=" << done;
    }
    used_after_rebuild |= o.device == 4 && o.dispatch >= done;
  }
  EXPECT_TRUE(used_after_rebuild);
}

TEST(FaultPipeline, RetryTimeoutFailsStrandedRequests) {
  // Black out every replica of bucket 0 for 40 intervals. With no retry
  // timeout the stranded requests wait and eventually serve; with a short
  // timeout they fail instead — and nothing else is affected.
  const SimTime T = kBaseInterval;
  PipelineConfig cfg;
  cfg.mapping = MappingMode::kModulo;
  for (const auto d : scheme931().replicas(0)) {
    cfg.faults.outages.push_back({.device = d, .fail_at = 0, .recover_at = 40 * T});
  }
  const auto t = light_trace(960);

  const auto patient = QosPipeline(scheme931(), cfg).run(t);
  EXPECT_EQ(patient.overall.failed, 0u);

  cfg.faults.retry.timeout = 10 * T;
  const auto impatient = QosPipeline(scheme931(), cfg).run(t);
  EXPECT_GT(impatient.overall.failed, 0u);
  // Only requests whose bucket lives entirely on the blacked-out replica
  // set can strand (rotations of bucket 0's block share its devices).
  const auto blacked = scheme931().replicas(0);
  for (std::size_t i = 0; i < impatient.outcomes.size(); ++i) {
    const auto& o = impatient.outcomes[i];
    if (!o.failed) continue;
    const BucketId b = t.events[i].block % scheme931().buckets();
    for (const auto d : scheme931().replicas(b)) {
      EXPECT_NE(std::find(blacked.begin(), blacked.end(), d), blacked.end())
          << "request " << i << " stranded although replica " << d
          << " was never blacked out";
    }
    EXPECT_EQ(o.path, core::RetrievalPath::kFailed);
  }
}

TEST(FaultPipeline, LatencySpikeStretchesServiceOnTheSpikedDevice) {
  const SimTime L = kPageReadLatency;
  PipelineConfig cfg;
  cfg.mapping = MappingMode::kModulo;
  cfg.scheduler = core::SchedulerMode::kPrimaryOnly;
  cfg.admission = AdmissionMode::kNone;
  cfg.faults.spikes.push_back(
      {.device = 0, .start = 0, .end = 100 * kBaseInterval, .factor = 4.0});
  const auto t = light_trace(480);
  const auto r = QosPipeline(scheme931(), cfg).run(t);
  bool spiked_seen = false;
  for (const auto& o : r.outcomes) {
    if (o.failed || o.is_write) continue;
    const SimTime service = o.finish - o.start;
    if (o.device == 0 && o.start < 100 * kBaseInterval) {
      EXPECT_EQ(service, 4 * L);
      spiked_seen = true;
    } else if (o.start >= 100 * kBaseInterval) {
      EXPECT_EQ(service, L);
    }
  }
  EXPECT_TRUE(spiked_seen) << "primary-only must route some reads to device 0";
}

TEST(FaultInjector, AvailabilityAndRecoveryQueries) {
  fault::FaultPlan plan;
  plan.outages.push_back({.device = 1, .fail_at = 10, .recover_at = 20});
  plan.outages.push_back({.device = 1, .fail_at = 20, .recover_at = 30});
  plan.outages.push_back({.device = 2,
                          .fail_at = 5,
                          .recover_at = fault::DeviceFailure::kNeverRecovers});
  fault::FaultInjector inj(fault::compile(plan, scheme931(), 100));
  std::vector<bool> mask;
  EXPECT_EQ(inj.fill_availability(0, 9, mask), 0u);
  EXPECT_EQ(inj.fill_availability(15, 9, mask), 2u);
  EXPECT_FALSE(mask[1]);
  EXPECT_FALSE(mask[2]);
  // Chained windows: recovery at 20 lands inside the next outage.
  EXPECT_EQ(inj.device_up_at(1, 15), 30);
  EXPECT_EQ(inj.device_up_at(2, 15), fault::DeviceFailure::kNeverRecovers);
  EXPECT_EQ(inj.device_up_at(0, 15), 15);
}

}  // namespace
}  // namespace flashqos
