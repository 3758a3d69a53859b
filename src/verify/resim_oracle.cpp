#include "verify/resim_oracle.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

#include "core/sampler.hpp"
#include "fault/injector.hpp"
#include "flashsim/flash_array.hpp"
#include "trace/synthetic.hpp"
#include "trace/workload.hpp"

namespace flashqos::verify {
namespace {

std::string describe(const core::DeviceOp& op) {
  static constexpr const char* kKinds[] = {"read", "write", "rebuild"};
  return std::string(kKinds[static_cast<std::size_t>(op.kind)]) + " of request " +
         std::to_string(op.request) + " on device " + std::to_string(op.device) +
         " [" + std::to_string(op.start) + ", " + std::to_string(op.finish) + ")";
}

}  // namespace

void DeviceOpLog::on_outcome(std::uint64_t seq, const trace::TraceEvent& /*ev*/,
                             const core::RequestOutcome& out) {
  if (out.failed || out.is_write) return;
  reads.push_back({.device = out.device,
                   .start = out.start,
                   .finish = out.finish,
                   .kind = core::DeviceOpKind::kRead,
                   .request = static_cast<std::int64_t>(seq)});
}

ResimResult resimulate(const decluster::AllocationScheme& scheme,
                       const core::PipelineConfig& cfg, SimTime horizon,
                       const DeviceOpLog& log) {
  ResimResult res;
  res.ops = log.ops.size();
  const auto miss = [&](const std::string& what) {
    if (res.mismatches++ == 0) res.first = what;
  };

  const fault::FaultInjector faults(cfg.faults, scheme, horizon);
  flashsim::FlashArray array(scheme.devices(),
                             std::make_shared<flashsim::FixedLatencyModel>(
                                 cfg.service_time, cfg.write_latency));
  for (std::size_t i = 0; i < log.ops.size(); ++i) {
    const auto& op = log.ops[i];
    flashsim::IoRequest req{.id = i,
                            .device = op.device,
                            .submit_time = op.start,
                            .is_write = op.kind == core::DeviceOpKind::kWrite};
    if (!req.is_write && faults.active()) {
      req.service_override = faults.read_service(op.device, op.start, cfg.service_time);
    }
    array.submit(req);
  }
  array.run();

  // One completion per op, with the op's start and finish.
  const auto done = array.take_completions();
  if (done.size() != log.ops.size()) {
    miss(std::to_string(done.size()) + " completions for " +
         std::to_string(log.ops.size()) + " ops");
  }
  for (const auto& c : done) {
    const auto& op = log.ops[c.id];
    if (c.start != op.start || c.finish != op.finish) {
      miss(describe(op) + " != simulator [" + std::to_string(c.start) + ", " +
           std::to_string(c.finish) + ")");
    }
  }

  // Every served read is exactly one read op (log.reads is in trace order,
  // so sorted by request).
  std::vector<core::DeviceOp> read_ops;
  std::copy_if(log.ops.begin(), log.ops.end(), std::back_inserter(read_ops),
               [](const auto& op) { return op.kind == core::DeviceOpKind::kRead; });
  std::stable_sort(read_ops.begin(), read_ops.end(),
                   [](const auto& a, const auto& b) { return a.request < b.request; });
  if (read_ops.size() != log.reads.size()) {
    miss(std::to_string(log.reads.size()) + " served reads for " +
         std::to_string(read_ops.size()) + " read ops");
  } else if (const auto [r, op] = std::mismatch(log.reads.begin(), log.reads.end(),
                                                read_ops.begin());
             r != log.reads.end()) {
    miss("served " + describe(*r) + " but its read op is " + describe(*op));
  }
  return res;
}

core::PipelineResult run_resimulated(const decluster::AllocationScheme& scheme,
                                     const core::PipelineConfig& cfg,
                                     const trace::Trace& t, Report& report,
                                     const std::string& name) {
  DeviceOpLog log;
  auto result = core::QosPipeline(scheme, cfg).run(t, &log);
  const auto resim = resimulate(scheme, cfg, t.duration() + cfg.qos_interval, log);
  report.add(name, resim.ok(),
             std::to_string(resim.mismatches) + " of " + std::to_string(resim.ops) +
                 " device ops mismatch" + (resim.ok() ? "" : "; first: " + resim.first));
  return result;
}

Report verify_resimulation(const decluster::AllocationScheme& scheme) {
  Report report("re-simulation N=" + std::to_string(scheme.devices()));
  constexpr std::uint64_t kSeed = 2012;

  // Traces: a bucket-domain synthetic stream and a block-domain
  // Exchange-style stream (bursty, hot-set drift — what the figures use).
  trace::SyntheticParams sp;
  sp.bucket_pool = scheme.buckets();
  sp.requests_per_interval = 4;
  sp.total_requests = 2000;
  sp.seed = kSeed;
  const auto synthetic = trace::generate_synthetic(sp);
  const auto exchange =
      trace::generate_workload(trace::exchange_params(0.02, kSeed));

  const auto p_table = core::sample_optimal_probabilities(
      scheme, 24, {.samples_per_size = 200, .seed = kSeed});

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
          run_resimulated(scheme, cfg, synthetic, report,
                          combo + " @synthetic re-simulation");
          run_resimulated(scheme, cfg, exchange, report,
                          combo + " @exchange re-simulation");
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
    run_resimulated(
        scheme, cfg, exchange, report,
        std::string(rname) + "/det/fim/replica +failures @exchange re-simulation");
  }
  return report;
}

}  // namespace flashqos::verify
