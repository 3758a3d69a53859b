#include "fault/fault_plan.hpp"

#include <algorithm>
#include <cmath>

#include "util/expect.hpp"
#include "util/rng.hpp"

namespace flashqos::fault {
namespace {

// Distinct generator streams so adding spikes never perturbs the outage
// placement of the same seed.
inline constexpr std::uint64_t kOutageStream = 0x6f75;
inline constexpr std::uint64_t kSpikeStream = 0x7370;

void check_window(std::vector<std::string>& out, const char* what, DeviceId device,
                  SimTime start, SimTime end, std::uint32_t devices) {
  if (devices > 0 && device >= devices) {
    out.push_back(std::string(what) + " device " + std::to_string(device) +
                  " out of range (array has " + std::to_string(devices) +
                  " devices)");
  }
  if (start < 0) {
    out.push_back(std::string(what) + " on device " + std::to_string(device) +
                  " starts before t=0");
  }
  if (end <= start) {
    out.push_back(std::string(what) + " on device " + std::to_string(device) +
                  " is an empty window (end <= start)");
  }
}

/// True when `device` is inside an outage window at `t`.
bool down_at(const std::vector<DeviceFailure>& outages, DeviceId device, SimTime t) {
  return std::any_of(outages.begin(), outages.end(), [&](const DeviceFailure& f) {
    return f.device == device && f.fail_at <= t && t < f.recover_at;
  });
}

/// Earliest instant >= t at which `device` is up, chasing chained windows.
SimTime up_at(const std::vector<DeviceFailure>& outages, DeviceId device, SimTime t) {
  bool moved = true;
  while (moved) {
    moved = false;
    for (const auto& f : outages) {
      if (f.device == device && f.fail_at <= t && t < f.recover_at) {
        if (f.recover_at == DeviceFailure::kNeverRecovers) {
          return DeviceFailure::kNeverRecovers;
        }
        t = f.recover_at;
        moved = true;
      }
    }
  }
  return t;
}

/// True when `device` never returns to service after `t`.
bool dead_forever(const std::vector<DeviceFailure>& outages, DeviceId device,
                  SimTime t) {
  return up_at(outages, device, t) == DeviceFailure::kNeverRecovers;
}

}  // namespace

std::vector<std::string> FaultPlan::validate(std::uint32_t devices) const {
  std::vector<std::string> out;
  for (const auto& f : outages) {
    check_window(out, "outage", f.device, f.fail_at, f.recover_at, devices);
  }
  // Overlapping outage windows on one device are almost certainly a config
  // mistake (the old vector<DeviceFailure> silently took the max recovery).
  auto sorted = outages;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const DeviceFailure& a, const DeviceFailure& b) {
                     return a.device != b.device ? a.device < b.device
                                                 : a.fail_at < b.fail_at;
                   });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].device == sorted[i - 1].device &&
        sorted[i].fail_at < sorted[i - 1].recover_at) {
      out.push_back("overlapping outage windows on device " +
                    std::to_string(sorted[i].device));
    }
  }
  for (const auto& s : spikes) {
    check_window(out, "latency spike", s.device, s.start, s.end, devices);
    if (s.factor <= 0.0) {
      out.push_back("latency spike on device " + std::to_string(s.device) +
                    " has non-positive factor");
    }
  }
  if (transient.count > 0 && transient.mean_duration <= 0) {
    out.push_back("transient generator needs a positive mean duration");
  }
  if (latency_spike.count > 0) {
    if (latency_spike.mean_duration <= 0) {
      out.push_back("latency-spike generator needs a positive mean duration");
    }
    if (latency_spike.factor <= 0.0) {
      out.push_back("latency-spike generator has non-positive factor");
    }
  }
  if (rebuild.pages_per_second < 0.0) {
    out.push_back("rebuild rate must be non-negative");
  }
  if (retry.timeout <= 0) {
    out.push_back("retry timeout must be positive (kNoTimeout disables it)");
  }
  return out;
}

SimTime CompiledFaultPlan::last_disruption() const noexcept {
  SimTime last = 0;
  for (const auto& f : outages) {
    if (f.recover_at == DeviceFailure::kNeverRecovers) {
      return DeviceFailure::kNeverRecovers;
    }
    last = std::max(last, f.recover_at);
  }
  for (const auto& s : spikes) last = std::max(last, s.end);
  return last;
}

CompiledFaultPlan compile(const FaultPlan& plan,
                          const decluster::AllocationScheme& scheme,
                          SimTime horizon) {
  FLASHQOS_EXPECT(plan.validate(scheme.devices()).empty(),
                  "cannot compile an invalid fault plan");
  FLASHQOS_EXPECT(horizon >= 0, "fault horizon must be non-negative");
  CompiledFaultPlan out;
  out.outages = plan.outages;
  out.spikes = plan.spikes;
  out.retry_timeout = plan.retry.timeout;

  if (plan.transient.count > 0) {
    Rng rng(shard_seed(plan.seed, kOutageStream));
    for (std::uint32_t i = 0; i < plan.transient.count; ++i) {
      const auto device = static_cast<DeviceId>(rng.below(scheme.devices()));
      const auto start = static_cast<SimTime>(rng.below(
          static_cast<std::uint64_t>(horizon) + 1));
      const auto duration = std::max<SimTime>(
          1, static_cast<SimTime>(std::llround(rng.exponential(
                 static_cast<double>(plan.transient.mean_duration)))));
      out.outages.push_back({device, start, start + duration});
    }
  }
  if (plan.latency_spike.count > 0) {
    Rng rng(shard_seed(plan.seed, kSpikeStream));
    for (std::uint32_t i = 0; i < plan.latency_spike.count; ++i) {
      const auto device = static_cast<DeviceId>(rng.below(scheme.devices()));
      const auto start = static_cast<SimTime>(rng.below(
          static_cast<std::uint64_t>(horizon) + 1));
      const auto duration = std::max<SimTime>(
          1, static_cast<SimTime>(std::llround(rng.exponential(
                 static_cast<double>(plan.latency_spike.mean_duration)))));
      out.spikes.push_back({device, start, start + duration,
                            plan.latency_spike.factor});
    }
  }

  if (!plan.rebuild.enabled()) return out;

  // Hot-spare rebuild of each permanent failure, in failure order — an
  // earlier rebuilt device can serve as a source for a later rebuild, and
  // the folded recovery instants feed the availability scans below.
  std::vector<std::size_t> permanents;
  for (std::size_t i = 0; i < out.outages.size(); ++i) {
    if (out.outages[i].recover_at == DeviceFailure::kNeverRecovers) {
      permanents.push_back(i);
    }
  }
  std::stable_sort(permanents.begin(), permanents.end(),
                   [&](std::size_t a, std::size_t b) {
                     return out.outages[a].fail_at < out.outages[b].fail_at;
                   });
  const auto gap = std::max<SimTime>(
      1, static_cast<SimTime>(std::llround(1e9 / plan.rebuild.pages_per_second)));
  for (const auto oi : permanents) {
    const DeviceId failed = out.outages[oi].device;
    const SimTime fail_at = out.outages[oi].fail_at;
    RebuildJob job{.device = failed, .start = fail_at};

    // Min-load greedy source choice among replicas that eventually return
    // to service: each affected bucket reads from the surviving replica
    // with the fewest rebuild reads so far (ties to the earlier replica).
    std::vector<RebuildRead> reads;
    std::vector<std::size_t> source_load(scheme.devices(), 0);
    bool recoverable = true;
    for (BucketId b = 0; b < scheme.buckets() && recoverable; ++b) {
      const auto reps = scheme.replicas(b);
      if (std::find(reps.begin(), reps.end(), failed) == reps.end()) continue;
      DeviceId best = kInvalidDevice;
      for (const auto d : reps) {
        if (d == failed || dead_forever(out.outages, d, fail_at)) continue;
        if (best == kInvalidDevice || source_load[d] < source_load[best]) best = d;
      }
      if (best == kInvalidDevice) {
        // Some bucket is unrecoverable: the rebuild aborts and the device
        // stays down forever (its data cannot be reconstructed).
        recoverable = false;
        break;
      }
      ++source_load[best];
      reads.push_back({.source = best, .bucket = b});
    }
    if (!recoverable) {
      out.rebuilds.push_back(job);
      continue;
    }

    // Pace the reads one gap apart; a read whose source is down at its
    // slot waits for that source to come back. A source can look
    // recoverable at fail_at yet die permanently later — if a slot lands
    // in that terminal window the rebuild aborts like the no-source case.
    SimTime done = fail_at + gap;
    for (std::size_t i = 0; i < reads.size() && recoverable; ++i) {
      SimTime at = fail_at + static_cast<SimTime>(i + 1) * gap;
      if (down_at(out.outages, reads[i].source, at)) {
        at = up_at(out.outages, reads[i].source, at);
        if (at == DeviceFailure::kNeverRecovers) {
          recoverable = false;
          break;
        }
      }
      reads[i].time = at;
      done = std::max(done, at + gap);
    }
    if (!recoverable) {
      out.rebuilds.push_back(job);
      continue;
    }
    out.outages[oi].recover_at = done;
    job.done = done;
    job.reads = reads.size();
    job.completed = true;
    out.rebuilds.push_back(job);
    out.reads.insert(out.reads.end(), reads.begin(), reads.end());
  }
  std::stable_sort(out.reads.begin(), out.reads.end(),
                   [](const RebuildRead& a, const RebuildRead& b) {
                     return a.time < b.time;
                   });
  return out;
}

}  // namespace flashqos::fault
