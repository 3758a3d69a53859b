// Fault plans: the value type behind PipelineConfig's fault injection.
//
// A FaultPlan describes everything that can go wrong with the array during
// a replay, in one declarative object:
//
//  * scripted outage windows, transient or permanent (a `[faults]`
//    `fail = d t0 t1` config line is one window);
//  * scripted latency spikes — a device stays up but serves reads slower
//    by a multiplicative factor for a window (media retries, background
//    GC, thermal throttling);
//  * seeded stochastic generators for both, so chaos runs are one seed
//    away from reproducible;
//  * a hot-spare rebuild policy: a permanent failure triggers a paced
//    background read stream (one read per affected bucket, from its
//    least-loaded surviving replica) and the device re-enters service
//    when the last affected bucket has been copied out;
//  * retry/timeout semantics for requests stranded with every replica
//    down: by default they wait for the earliest recovery, with a timeout
//    they are marked failed once the wait would exceed it.
//
// compile() materializes a plan against a concrete allocation scheme and
// replay horizon: generators are expanded into concrete windows, rebuild
// read streams are planned and paced, and permanent outages under a
// rebuild policy get their actual recovery instant folded in. The result
// is pure data — the pipeline's injector and the chaos oracle in
// src/verify both consume it, which is what makes the oracle's
// "recomputed from the plan" checks meaningful.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "decluster/allocation.hpp"
#include "util/time.hpp"

namespace flashqos::fault {

/// A device outage window [fail_at, recover_at). Requests are never routed
/// to a down device; replication serves them from surviving copies. A
/// request whose replicas are all down waits for the earliest recovery, or
/// is marked failed if none of them ever comes back (or the plan's retry
/// timeout expires first).
struct DeviceFailure {
  DeviceId device = 0;
  SimTime fail_at = 0;
  SimTime recover_at = kNeverRecovers;

  static constexpr SimTime kNeverRecovers = INT64_MAX;
};

/// A service-time degradation window: reads started on `device` inside
/// [start, end) take `factor` times the configured service time. The
/// device stays available — admission still counts it — but the slot
/// matcher sees fewer service quanta fitting in the guarantee window.
struct LatencySpike {
  DeviceId device = 0;
  SimTime start = 0;
  SimTime end = 0;
  double factor = 1.0;
};

/// Seeded generator for transient outage windows: `count` windows on
/// uniformly random devices, uniformly random start instants over the
/// replay horizon, exponentially distributed durations.
struct TransientSpec {
  std::uint32_t count = 0;
  SimTime mean_duration = 5 * kMillisecond;
};

/// Seeded generator for latency spikes (same placement distribution).
struct SpikeSpec {
  std::uint32_t count = 0;
  SimTime mean_duration = 5 * kMillisecond;
  double factor = 4.0;
};

/// Hot-spare rebuild: when a device fails permanently, read every bucket
/// it held from a surviving replica at `pages_per_second`, then bring the
/// rebuilt device back into service. Disabled at rate 0.
struct RebuildPolicy {
  double pages_per_second = 0.0;

  [[nodiscard]] bool enabled() const noexcept { return pages_per_second > 0.0; }
};

/// What happens to a request stranded with all replicas down. The default
/// waits indefinitely for the earliest recovery (legacy behaviour); a
/// finite timeout marks the request failed once its next possible
/// dispatch would exceed arrival + timeout.
struct RetryPolicy {
  SimTime timeout = kNoTimeout;

  static constexpr SimTime kNoTimeout = INT64_MAX;
};

struct FaultPlan {
  std::vector<DeviceFailure> outages;  // scripted outage windows
  std::vector<LatencySpike> spikes;    // scripted degradation windows
  TransientSpec transient;             // generated outages
  SpikeSpec latency_spike;             // generated spikes
  RebuildPolicy rebuild;
  RetryPolicy retry;
  std::uint64_t seed = 1;  // generator seed; same seed → same windows

  /// True when the plan injects nothing: no scripted windows and no
  /// generators. An empty plan leaves the pipeline on the healthy path
  /// bit for bit.
  [[nodiscard]] bool empty() const noexcept {
    return outages.empty() && spikes.empty() && transient.count == 0 &&
           latency_spike.count == 0;
  }

  /// Readable diagnostics; empty means valid. `devices` bounds device ids
  /// when nonzero (a plan parsed before the scheme is known passes 0).
  [[nodiscard]] std::vector<std::string> validate(std::uint32_t devices = 0) const;
};

/// One paced rebuild read: at `time`, read `bucket` from `source`.
struct RebuildRead {
  SimTime time = 0;
  DeviceId source = kInvalidDevice;
  BucketId bucket = 0;
};

/// Rebuild bookkeeping for one permanently failed device. `completed`
/// is false when some affected bucket has no surviving replica that ever
/// returns — the rebuild aborts and the device stays down forever.
struct RebuildJob {
  DeviceId device = kInvalidDevice;
  SimTime start = 0;
  SimTime done = DeviceFailure::kNeverRecovers;
  std::size_t reads = 0;
  bool completed = false;
};

/// A plan materialized against a scheme and replay horizon: generators
/// expanded, rebuild streams planned, recovery instants folded in.
struct CompiledFaultPlan {
  std::vector<DeviceFailure> outages;
  std::vector<LatencySpike> spikes;
  std::vector<RebuildRead> reads;  // time-ordered background rebuild reads
  std::vector<RebuildJob> rebuilds;
  SimTime retry_timeout = RetryPolicy::kNoTimeout;

  [[nodiscard]] bool active() const noexcept {
    return !outages.empty() || !spikes.empty();
  }

  /// The instant the array is fully healthy again: the latest outage
  /// recovery or spike end. kNeverRecovers when some device never comes
  /// back — there is no full recovery to re-establish the guarantee after.
  [[nodiscard]] SimTime last_disruption() const noexcept;
};

/// Materialize `plan` for a replay that ends at `horizon` (generated
/// windows start uniformly in [0, horizon]). Deterministic: same
/// (plan, scheme, horizon) → same compiled plan, independent of thread
/// count or call site. Aborts (FLASHQOS_EXPECT) on an invalid plan —
/// callers are expected to have run validate().
[[nodiscard]] CompiledFaultPlan compile(const FaultPlan& plan,
                                        const decluster::AllocationScheme& scheme,
                                        SimTime horizon);

}  // namespace flashqos::fault
