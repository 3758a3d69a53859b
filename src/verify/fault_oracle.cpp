#include "verify/fault_oracle.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "core/qos_pipeline.hpp"
#include "core/sampler.hpp"
#include "fault/fault_plan.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"
#include "verify/resim_oracle.hpp"

namespace flashqos::verify {
namespace {

/// Outage-window membership, recomputed from the compiled plan — the
/// oracle's notion of "down" is a direct scan over the windows, not the
/// injector's query surface.
bool device_down(const std::vector<fault::DeviceFailure>& outages, DeviceId d,
                 SimTime t) {
  return std::any_of(outages.begin(), outages.end(),
                     [&](const fault::DeviceFailure& f) {
                       return f.device == d && f.fail_at <= t && t < f.recover_at;
                     });
}

/// True when every window covering `device` after `t` eventually ends.
bool eventually_up(const std::vector<fault::DeviceFailure>& outages, DeviceId d,
                   SimTime t) {
  bool moved = true;
  while (moved) {
    moved = false;
    for (const auto& f : outages) {
      if (f.device == d && f.fail_at <= t && t < f.recover_at) {
        if (f.recover_at == fault::DeviceFailure::kNeverRecovers) return false;
        t = f.recover_at;
        moved = true;
      }
    }
  }
  return true;
}

/// One randomized plan. Seeded per (oracle seed, plan index) so every run
/// of the oracle sees the same adversarial schedules; the plan's own seed
/// drives the in-plan generators independently.
fault::FaultPlan make_plan(const decluster::AllocationScheme& scheme,
                           std::uint64_t seed, std::size_t r, SimTime T) {
  Rng g(shard_seed(seed, 7000 + r));
  fault::FaultPlan plan;
  plan.seed = shard_seed(seed, 100 + r);
  const auto N = scheme.devices();

  // A scripted transient outage somewhere in the first third of the trace.
  const auto dev = static_cast<DeviceId>(g.below(N));
  const SimTime fail = T * static_cast<SimTime>(2 + g.below(20));
  plan.outages.push_back(
      {dev, fail, fail + T * static_cast<SimTime>(1 + g.below(10))});

  // Every other plan: a permanent loss on a different device, with a
  // hot-spare rebuild so the array eventually returns to full strength.
  if (r % 2 == 0 && scheme.copies() >= 2) {
    auto dead = static_cast<DeviceId>(g.below(N));
    if (dead == dev) dead = (dead + 1) % N;
    plan.outages.push_back({dead, T * static_cast<SimTime>(30 + g.below(30)),
                            fault::DeviceFailure::kNeverRecovers});
    plan.rebuild.pages_per_second =
        20000.0 + 1000.0 * static_cast<double>(g.below(10));
  }

  // Odd plans: a coordinated blackout of one bucket's entire replica set,
  // long enough that a short retry timeout strands its requests — this is
  // what exercises the failed-with-all-replicas-down path (with c copies a
  // random all-replica outage is vanishingly rare).
  if (r % 2 == 1) {
    for (const auto d : scheme.replicas(0)) {
      plan.outages.push_back({d, 60 * T, (60 + 45) * T});
    }
    plan.retry.timeout = 10 * T;
  }

  plan.transient = {.count = static_cast<std::uint32_t>(g.below(3)),
                    .mean_duration = 2 * T};
  plan.latency_spike = {.count = static_cast<std::uint32_t>(g.below(3)),
                        .mean_duration = 2 * T,
                        .factor = 2.0 + static_cast<double>(g.below(4))};
  if (r % 2 == 0 && r % 3 == 0) plan.retry.timeout = 40 * T;
  return plan;
}

}  // namespace

Report verify_fault_tolerance(const decluster::AllocationScheme& scheme,
                              const FaultOracleParams& params) {
  Report report("fault-tolerance N=" + std::to_string(scheme.devices()));

  const SimTime T = kBaseInterval;
  const SimTime L = kPageReadLatency;
  const std::uint32_t M = 1;  // access budget under test

  const auto p_table = core::sample_optimal_probabilities(
      scheme, 16, {.samples_per_size = 200, .seed = params.seed});

  for (std::size_t r = 0; r < params.plans; ++r) {
    const auto plan = make_plan(scheme, params.seed, r, T);

    trace::SyntheticParams sp;
    sp.bucket_pool = scheme.buckets();
    sp.interval = T;
    sp.requests_per_interval = params.per_interval;
    sp.total_requests = params.per_interval * params.intervals;
    sp.seed = shard_seed(params.seed, 200 + r);
    const auto t = trace::generate_synthetic(sp);

    // The oracle's independent view of the fault schedule: same compile
    // the pipeline performs (it is a pure function of plan/scheme/horizon),
    // re-run here so the checks below never read pipeline state.
    const SimTime horizon = t.events.back().time + T;
    const auto compiled = fault::compile(plan, scheme, horizon);
    const SimTime last = compiled.last_disruption();
    const SimTime settled = last == fault::DeviceFailure::kNeverRecovers
                                ? fault::DeviceFailure::kNeverRecovers
                                : next_interval_start(last, T) + T;

    struct Combo {
      const char* name;
      core::RetrievalMode retrieval;
      core::AdmissionMode admission;
    };
    const Combo combos[] = {
        {"online/det", core::RetrievalMode::kOnline,
         core::AdmissionMode::kDeterministic},
        {"aligned/det", core::RetrievalMode::kIntervalAligned,
         core::AdmissionMode::kDeterministic},
        {"online/stat", core::RetrievalMode::kOnline,
         core::AdmissionMode::kStatistical},
    };
    for (const auto& combo : combos) {
      core::PipelineConfig cfg;
      cfg.retrieval = combo.retrieval;
      cfg.admission = combo.admission;
      cfg.mapping = core::MappingMode::kModulo;
      cfg.access_budget = M;
      cfg.faults = plan;
      cfg.p_table_samples = 100;
      if (combo.admission == core::AdmissionMode::kStatistical) {
        cfg.epsilon = 0.05;
        cfg.p_table = p_table;
      }
      const std::string tag =
          "plan " + std::to_string(r) + " " + combo.name;

      const auto result =
          run_resimulated(scheme, cfg, t, report, tag + " re-simulation");

      // (a) Request conservation: each trace event resolves to exactly one
      // terminal outcome — served with a real device and a coherent
      // timeline, or failed at an instant where every replica is down (and
      // only for a reason the plan licenses).
      bool conserved = true;
      std::string why;
      std::size_t failed_count = 0;
      for (std::size_t i = 0; i < result.outcomes.size() && conserved; ++i) {
        const auto& o = result.outcomes[i];
        const BucketId bucket = t.events[i].block % scheme.buckets();
        if (o.failed) {
          ++failed_count;
          bool timeout_possible =
              plan.retry.timeout != fault::RetryPolicy::kNoTimeout;
          for (const auto d : scheme.replicas(bucket)) {
            if (!device_down(compiled.outages, d, o.start)) {
              conserved = false;
              why = "request " + std::to_string(i) + " failed at t=" +
                    std::to_string(o.start) + " but replica device " +
                    std::to_string(d) + " was up";
            }
            if (eventually_up(compiled.outages, d, o.start) &&
                !timeout_possible) {
              conserved = false;
              why = "request " + std::to_string(i) +
                    " failed although replica " + std::to_string(d) +
                    " recovers and no retry timeout is set";
            }
          }
          continue;
        }
        if (o.device == kInvalidDevice || o.dispatch < o.arrival ||
            o.start < o.dispatch || o.finish <= o.start) {
          conserved = false;
          why = "request " + std::to_string(i) + " has an incoherent timeline";
        }
      }
      report.add(tag + " conservation", conserved,
                 conserved ? std::to_string(failed_count) + " failed of " +
                                 std::to_string(result.outcomes.size())
                           : why);

      // (b) No dispatch to a down device.
      bool routing = true;
      for (std::size_t i = 0; i < result.outcomes.size() && routing; ++i) {
        const auto& o = result.outcomes[i];
        if (o.failed) continue;
        if (device_down(compiled.outages, o.device, o.dispatch)) {
          routing = false;
          why = "request " + std::to_string(i) + " dispatched to device " +
                std::to_string(o.device) + " at t=" +
                std::to_string(o.dispatch) + " while it was down";
        }
      }
      report.add(tag + " no-down-dispatch", routing, routing ? "" : why);

      // (c) Deterministic guarantee re-established within one interval of
      // full recovery: once past `settled`, every dispatched read meets the
      // M·L response bound again.
      if (combo.admission == core::AdmissionMode::kDeterministic &&
          settled != fault::DeviceFailure::kNeverRecovers) {
        bool bound = true;
        std::size_t covered = 0;
        for (std::size_t i = 0; i < result.outcomes.size() && bound; ++i) {
          const auto& o = result.outcomes[i];
          if (o.failed || o.is_write || o.dispatch < settled) continue;
          ++covered;
          if (o.response() > static_cast<SimTime>(M) * L) {
            bound = false;
            why = "request " + std::to_string(i) + " dispatched at t=" +
                  std::to_string(o.dispatch) + " (recovered at t=" +
                  std::to_string(last) + ") took " +
                  std::to_string(o.response()) + " ns > M*L";
          }
        }
        report.add(tag + " guarantee-reestablished", bound,
                   bound ? std::to_string(covered) + " post-recovery requests"
                         : why);
      }
    }
  }
  return report;
}

}  // namespace flashqos::verify
