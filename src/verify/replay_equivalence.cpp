#include "verify/replay_equivalence.hpp"

#include <vector>

#include "core/parallel_replay.hpp"
#include "core/sampler.hpp"
#include "trace/synthetic.hpp"
#include "trace/workload.hpp"
#include "verify/resim_oracle.hpp"
#include "verify/result_compare.hpp"

namespace flashqos::verify {

Report verify_replay_equivalence(const decluster::AllocationScheme& scheme,
                                 const ReplayEquivalenceParams& params) {
  Report report("replay-equivalence N=" + std::to_string(scheme.devices()));

  // Traces: a bucket-domain synthetic stream and a block-domain
  // Exchange-style stream (bursty, hot-set drift — what the figures use).
  trace::SyntheticParams sp;
  sp.bucket_pool = scheme.buckets();
  sp.requests_per_interval = 4;
  sp.total_requests = 2000;
  sp.seed = params.seed;
  const auto synthetic = trace::generate_synthetic(sp);
  const auto exchange =
      trace::generate_workload(trace::exchange_params(params.trace_scale, params.seed));

  const auto p_table = core::sample_optimal_probabilities(
      scheme, 24, {.samples_per_size = params.p_samples, .seed = params.seed});

  core::ParallelReplayEngine engine({.threads = params.threads});

  const auto check_one = [&](const std::string& name,
                             const core::PipelineConfig& cfg,
                             const trace::Trace& t) {
    const auto serial =
        run_resimulated(scheme, cfg, t, report, name + " re-simulation");
    const core::ReplayJob job{&scheme, &t, cfg};
    const auto swept = engine.run_jobs({&job, 1});
    std::string why;
    const bool ok = results_identical(serial, swept.at(0), &why);
    report.add(name, ok, ok ? "" : why);
  };

  const std::pair<core::RetrievalMode, const char*> retrievals[] = {
      {core::RetrievalMode::kOnline, "online"},
      {core::RetrievalMode::kIntervalAligned, "aligned"}};
  const std::pair<core::AdmissionMode, const char*> admissions[] = {
      {core::AdmissionMode::kNone, "none"},
      {core::AdmissionMode::kDeterministic, "det"},
      {core::AdmissionMode::kStatistical, "stat"}};
  const std::pair<core::MappingMode, const char*> mappings[] = {
      {core::MappingMode::kModulo, "modulo"}, {core::MappingMode::kFim, "fim"}};
  const std::pair<core::SchedulerMode, const char*> schedulers[] = {
      {core::SchedulerMode::kReplicaScheduled, "replica"},
      {core::SchedulerMode::kPrimaryOnly, "primary"}};

  for (const auto& [retrieval, rname] : retrievals) {
    for (const auto& [admission, aname] : admissions) {
      for (const auto& [mapping, mname] : mappings) {
        for (const auto& [scheduler, sname] : schedulers) {
          core::PipelineConfig cfg;
          cfg.retrieval = retrieval;
          cfg.admission = admission;
          cfg.mapping = mapping;
          cfg.scheduler = scheduler;
          if (admission == core::AdmissionMode::kStatistical) {
            cfg.epsilon = 0.01;
            cfg.p_table = p_table;
          }
          const std::string combo = std::string(rname) + "/" + aname + "/" +
                                    mname + "/" + sname;
          check_one(combo + " @synthetic", cfg, synthetic);
          check_one(combo + " @exchange", cfg, exchange);
        }
      }
    }
  }

  // Failure windows: a transient outage and a permanent loss, in both
  // retrieval modes under deterministic admission with FIM mapping.
  for (const auto& [retrieval, rname] : retrievals) {
    core::PipelineConfig cfg;
    cfg.retrieval = retrieval;
    cfg.admission = core::AdmissionMode::kDeterministic;
    cfg.mapping = core::MappingMode::kFim;
    cfg.faults.outages.push_back({.device = 0,
                                  .fail_at = from_ms(1.0),
                                  .recover_at = from_ms(6.0)});
    cfg.faults.outages.push_back({.device = scheme.devices() - 1,
                            .fail_at = from_ms(2.0),
                            .recover_at = fault::DeviceFailure::kNeverRecovers});
    check_one(std::string(rname) + "/det/fim/replica +failures @exchange", cfg,
              exchange);
  }

  // Sweep sharding: a mixed-mode job list replayed as one run_jobs batch
  // must match per-job serial runs slot for slot.
  {
    std::vector<core::ReplayJob> jobs;
    std::vector<core::PipelineConfig> cfgs(4);
    cfgs[0].retrieval = core::RetrievalMode::kOnline;
    cfgs[1].retrieval = core::RetrievalMode::kIntervalAligned;
    cfgs[2].retrieval = core::RetrievalMode::kOnline;
    cfgs[2].admission = core::AdmissionMode::kNone;
    cfgs[2].mapping = core::MappingMode::kModulo;
    cfgs[3].retrieval = core::RetrievalMode::kIntervalAligned;
    cfgs[3].scheduler = core::SchedulerMode::kPrimaryOnly;
    for (const auto& cfg : cfgs) jobs.push_back({&scheme, &exchange, cfg});
    jobs.push_back({&scheme, &synthetic, cfgs[1]});
    const auto swept = engine.run_jobs(jobs);
    bool ok = true;
    std::string why;
    for (std::size_t i = 0; ok && i < jobs.size(); ++i) {
      const auto serial =
          core::QosPipeline(*jobs[i].scheme, jobs[i].config).run(*jobs[i].trace);
      ok = results_identical(serial, swept[i], &why);
      if (!ok) why = "job " + std::to_string(i) + ": " + why;
    }
    report.add("run_jobs mixed sweep (5 jobs)", ok, ok ? "" : why);
  }

  return report;
}

}  // namespace flashqos::verify
