#include "verify/resim_oracle.hpp"

#include <algorithm>
#include <iterator>
#include <memory>

#include "fault/injector.hpp"
#include "flashsim/flash_array.hpp"

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

}  // namespace flashqos::verify
