// FaultInjector: the replay-time query surface over a compiled fault plan.
//
// The pipeline builds one injector per replay (compile() is deterministic,
// so every replay of the same config sees identical faults) and asks it
// three questions at each simulated instant:
//
//   * fill_availability — which devices are up right now (and how many are
//     down), feeding both dispatch masking and the adaptive S' budget;
//   * read_service — how long a read takes on a device right now (the base
//     service stretched by latency spikes), feeding the engine's device
//     model and the slot matcher's capacity math;
//   * take_rebuild_due — the paced background rebuild reads that have come
//     due, which the pipeline schedules on their source devices ahead of
//     foreground traffic.
//
// The injector is plain sequential state over plain data; it performs no
// randomness of its own, which is what keeps every fault schedule exactly
// replayable.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "fault/fault_plan.hpp"

namespace flashqos::fault {

class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, const decluster::AllocationScheme& scheme,
                SimTime horizon)
      : compiled_(compile(plan, scheme, horizon)) {}

  explicit FaultInjector(CompiledFaultPlan compiled)
      : compiled_(std::move(compiled)) {}

  /// False for an empty plan: the pipeline skips all fault bookkeeping and
  /// replays bit-for-bit as if the subsystem did not exist.
  [[nodiscard]] bool active() const noexcept { return compiled_.active(); }

  [[nodiscard]] const CompiledFaultPlan& compiled() const noexcept {
    return compiled_;
  }

  /// Resize `out` to `devices` and mark each device's availability at
  /// `now`. Returns the number of down devices (0 means the mask is all
  /// true and callers should treat the array as healthy).
  std::uint32_t fill_availability(SimTime now, std::uint32_t devices,
                                  std::vector<bool>& out) const {
    out.assign(devices, true);
    std::uint32_t down = 0;
    for (const auto& f : compiled_.outages) {
      if (f.fail_at <= now && now < f.recover_at && f.device < devices &&
          out[f.device]) {
        out[f.device] = false;
        ++down;
      }
    }
    return down;
  }

  /// Earliest instant >= now at which `device` is up; kNeverRecovers when
  /// it is down forever. Chases chained windows so a recovery that lands
  /// inside the next outage is not reported as up.
  [[nodiscard]] SimTime device_up_at(DeviceId device, SimTime now) const {
    bool moved = true;
    while (moved) {
      moved = false;
      for (const auto& f : compiled_.outages) {
        if (f.device == device && f.fail_at <= now && now < f.recover_at) {
          if (f.recover_at == DeviceFailure::kNeverRecovers) {
            return DeviceFailure::kNeverRecovers;
          }
          now = f.recover_at;
          moved = true;
        }
      }
    }
    return now;
  }

  /// Service of a read on `device` starting at `now`: `base` stretched by
  /// the strongest latency spike covering it (at least 1 ns).
  [[nodiscard]] SimTime read_service(DeviceId device, SimTime now,
                                     SimTime base) const {
    double factor = 1.0;
    for (const auto& s : compiled_.spikes) {
      if (s.device == device && s.start <= now && now < s.end &&
          s.factor > factor) {
        factor = s.factor;
      }
    }
    if (factor == 1.0) return base;
    return std::max<SimTime>(
        1, static_cast<SimTime>(std::llround(static_cast<double>(base) * factor)));
  }

  /// True when any spike window covers `now` on any device — lets the
  /// pipeline skip per-device multiplier scans on quiet instants.
  [[nodiscard]] bool any_spike_at(SimTime now) const {
    for (const auto& s : compiled_.spikes) {
      if (s.start <= now && now < s.end) return true;
    }
    return false;
  }

  /// Rebuild reads that have come due at `now`, in time order; advances
  /// the internal cursor so each read is handed out exactly once.
  [[nodiscard]] std::span<const RebuildRead> take_rebuild_due(SimTime now) {
    const std::size_t first = rebuild_cursor_;
    while (rebuild_cursor_ < compiled_.reads.size() &&
           compiled_.reads[rebuild_cursor_].time <= now) {
      ++rebuild_cursor_;
    }
    return {compiled_.reads.data() + first, rebuild_cursor_ - first};
  }

  [[nodiscard]] std::size_t rebuild_reads_total() const noexcept {
    return compiled_.reads.size();
  }

  [[nodiscard]] std::size_t rebuild_reads_issued() const noexcept {
    return rebuild_cursor_;
  }

 private:
  CompiledFaultPlan compiled_;
  std::size_t rebuild_cursor_ = 0;
};

}  // namespace flashqos::fault
