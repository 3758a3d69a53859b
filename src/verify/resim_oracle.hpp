// Device-op re-simulation oracle: the replay engine's per-device FIFO
// model is checked against flashsim::FlashArray. Every device op a replay
// scheduled (reads, write replicas, rebuild reads) is submitted at its
// start to a fresh array, which must serve it with the same start and
// finish; every served read must be exactly one read op. This checks the
// device physics, not the schedule (the goldens pin that).
// verify_resimulation runs it over every pipeline mode combination
// (flashqos_verify --replay).
#pragma once

#include <string>
#include <vector>

#include "core/qos_pipeline.hpp"
#include "verify/invariants.hpp"

namespace flashqos::verify {

/// Records a replay's device ops and served reads: pass it as
/// QosPipeline::run's observer or as StreamOptions::sink.
class DeviceOpLog final : public core::OutcomeSink {
 public:
  void on_outcome(std::uint64_t seq, const trace::TraceEvent& ev,
                  const core::RequestOutcome& out) override;
  void on_device_op(const core::DeviceOp& op) override { ops.push_back(op); }

  std::vector<core::DeviceOp> ops;    // scheduling order
  std::vector<core::DeviceOp> reads;  // served read outcomes, trace order
};

struct ResimResult {
  std::size_t ops = 0;
  std::size_t mismatches = 0;
  std::string first;  // the first mismatch, empty when there is none

  [[nodiscard]] bool ok() const noexcept { return mismatches == 0; }
};

/// Re-simulate `log` on a FlashArray with FixedLatencyModel(service_time,
/// write_latency). Reads and rebuild reads take their spike-stretched
/// service from a FaultInjector built here from (cfg.faults, scheme,
/// horizon), never from the op's own finish; `horizon` is the replay's.
[[nodiscard]] ResimResult resimulate(const decluster::AllocationScheme& scheme,
                                     const core::PipelineConfig& cfg, SimTime horizon,
                                     const DeviceOpLog& log);

/// QosPipeline::run(t) with its device ops re-simulated: adds one check
/// named `name` to `report` and returns the replay's result.
core::PipelineResult run_resimulated(const decluster::AllocationScheme& scheme,
                                     const core::PipelineConfig& cfg,
                                     const trace::Trace& t, Report& report,
                                     const std::string& name);

/// Re-simulate one replay per {retrieval × admission × mapping ×
/// scheduler} combination on a synthetic trace and on an Exchange-style
/// trace, plus two failure-window configs: 50 replays, one check each.
[[nodiscard]] Report verify_resimulation(const decluster::AllocationScheme& scheme);

}  // namespace flashqos::verify
