// Observability for one replay: the replay engine's only link to src/obs.
// The engine calls ReplayObs at fixed event points; ReplayObs keeps what
// they report in plain single-writer tallies and publishes it off the
// per-request path:
//  * loop counts go to their counters once, at the end of the replay;
//  * latencies go to one obs::HistogramTally per histogram, exact for any
//    number of distinct values, merged at the end of the replay;
//  * each windowed series tallies its open QoS window; a rollover closes
//    the window into a buffer of points, and a buffer is merged into its
//    series under one lock when it fills, at the end of every drain call
//    and at the end of the replay (so a /series scrape between drain calls
//    sees every closed window);
//  * SLO samples go to the SloMonitor at every rollover, window by window
//    (burn-rate state depends on their order);
//  * trace records, while tracing: the tracer's enabled flag is read once
//    per replay, in the constructor, and the tracer is not called again
//    when it was off.
// With the tracer off, the per-request hooks make no atomic operation,
// lock or out-of-line call (but a tally's one-time move to its buckets).
// ReplayObs only reads what the engine hands it, so no result depends on
// it. Its methods are empty when built with FLASHQOS_OBS=OFF; the
// per-request ones are inline.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/qos_pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/tracer.hpp"

namespace flashqos::fault {
class FaultInjector;
}  // namespace flashqos::fault

namespace flashqos::core {

class TenantScheduler;

class ReplayObs {
 public:
  // flashqos-lint: allow(wall-clock): stage-timing metrics, never a result
  using Clock = std::chrono::steady_clock;

  /// Registers the replay's instruments and series and configures the
  /// SloMonitor; fault.* registers once a fault plan records into it. Reads
  /// the replay's fault injector and (tenant mode only) tenant scheduler.
  ReplayObs(const PipelineConfig& cfg, std::uint32_t devices,
            const fault::FaultInjector& injector, const TenantScheduler* ts);

  // ---- wall-clock stage timing: pipeline.interval_ns{stage} ---------------
  [[nodiscard]] static Clock::time_point wall_now() {
    return obs::kEnabled ? Clock::now() : Clock::time_point{};
  }
  void ingested(Clock::time_point t0) {
    if constexpr (obs::kEnabled) ingest_ns_->record(elapsed_ns(t0));
  }
  /// The end of one drain call: closed windows reach their series.
  void drained(Clock::time_point t0) {
    if constexpr (obs::kEnabled) {
      publish_windows();
      drain_ns_->record(elapsed_ns(t0));
    }
  }

  // ---- per-request event points ------------------------------------------

  /// A read, write replica or rebuild read occupied its device.
  void device_op(const DeviceOp& op) {
    if constexpr (obs::kEnabled) {
      auto& t = device_[op.device];
      ++t.ops;
      t.busy_ns += static_cast<std::uint64_t>(op.finish - op.start);
      if (op.kind == DeviceOpKind::kWrite) ++tally_[kWriteReplicaOps];
      if (trace_on_) trace_device_op(op);
    }
  }

  /// A read was served. Window tallies key on its dispatch instant, which
  /// always lies in the open QoS window.
  void read_dispatched(const RequestOutcome& o) {
    if constexpr (obs::kEnabled) {
      ++tally_[kDispatches];
      const SimTime at = o.dispatch;
      const std::int64_t resp = o.finish - o.dispatch;
      win_[kWinReads].add(at, 1);
      win_[kWinResponse].add(at, resp);
      win_[kScalars + o.device].add(at, 1);
      if (win_[kWinQ].series != nullptr) win_[kWinQ].add(at, o.q_ppm);
      if (o.path == RetrievalPath::kDegraded) win_[kWinDegraded].add(at, 1);
      if (tenants_ > 0) tenant_window(o.tenant, false).add(at, 1);
      slo_sample(false, o.tenant,
                 [&](const SloTally& st) { return resp > st.threshold_ns; });
    }
  }

  /// A fresh read met its tenant queue: one admission-floor SLO sample,
  /// bad when the queue shed it.
  void tenant_enqueued(SimTime now, std::uint32_t tenant, bool shed) {
    if constexpr (obs::kEnabled) {
      slo_sample(true, tenant, [&](const SloTally&) { return shed; });
      if (shed) {
        win_[kWinShed].add(now, 1);
        tenant_window(tenant, true).add(now, 1);
      }
    }
  }

  void write_fanned_out(SimTime now) {
    if constexpr (obs::kEnabled) win_[kWinWrites].add(now, 1);
  }
  /// Every replica down, and no recovery within reach.
  void read_failed(SimTime now) {
    if constexpr (obs::kEnabled) win_[kWinFailed].add(now, 1);
  }
  /// Admission looked at one more read or tenant head.
  void offer() { if constexpr (obs::kEnabled) ++tally_[kAdmissionOffers]; }
  /// `n` reads wait into the next QoS interval.
  void deferrals(std::uint64_t n) {
    if constexpr (obs::kEnabled) tally_[kDeferralEvents] += n;
  }
  void retry() { if constexpr (obs::kEnabled) ++retries_; }
  void timeout() { if constexpr (obs::kEnabled) ++timeouts_; }
  /// A dispatch instant of QoS interval `qi` saw a device down.
  void degraded(std::int64_t qi) {
    if constexpr (obs::kEnabled) {
      if (qi != last_degraded_qi_) ++degraded_intervals_;
      last_degraded_qi_ = qi;
    }
  }

  /// Outcome `seq` left the engine's window (trace order).
  void outcome(std::uint64_t seq, const RequestOutcome& o) {
    if constexpr (obs::kEnabled) {
      ++by_path_[static_cast<std::size_t>(o.path)];
      if (o.failed) {
        ++tally_[kFailed];
      } else if (o.is_write) {
        ++tally_[kWrites];
      } else {
        ++tally_[kReadsServed];
        latency_[kResponse].add(o.response());
        latency_[kE2e].add(o.end_to_end());
        latency_[kStageQueue].add(o.dispatch - o.arrival);
        latency_[kStageSchedule].add(o.start - o.dispatch);
        latency_[kStageService].add(o.finish - o.start);
        if (o.deferred()) {
          ++tally_[kDeferred];
          latency_[kDelay].add(o.delay());
        }
      }
      if (trace_on_) trace_outcome(seq, o);
    }
  }

  // ---- interval and replay boundaries -------------------------------------

  /// The rollover at `now` closes QoS window `closed` (none while negative)
  /// after `admitted` admissions: a kInterval record (while tracing), every
  /// non-empty window tally's point (into its series' buffer) and every SLO
  /// sample go out, and the tenant queue depths carried across the boundary
  /// are sampled.
  void qos_rollover(SimTime now, std::int64_t closed, std::uint64_t admitted);
  /// `n` paced rebuild reads were issued.
  void rebuild_reads(std::size_t n);
  /// End of replay: close the open window, merge every buffered point,
  /// publish the loop tallies and the device, fault and WFQ accounting,
  /// then merge the latency tallies into their histograms.
  void finish(std::int64_t open_window, std::uint64_t requests,
              std::uint64_t deadline_violations);

 private:
  static constexpr std::size_t kPaths = 10;  // RetrievalPath values

  /// The latency histograms, in registration order.
  enum Latency : std::size_t {
    kResponse, kE2e, kDelay, kStageQueue, kStageSchedule, kStageService, kLatencies
  };

  /// Loop tallies, each published to its pipeline.* counter.
  enum Tally : std::size_t {
    kRequests, kReadsServed, kWrites, kFailed, kDeferred, kDeadlineViolations,
    kDispatches, kWriteReplicaOps, kDeferralEvents, kAdmissionOffers, kTallies
  };

  /// Closed windows a series buffers before merging them in one lock.
  static constexpr std::size_t kWindowBatch = 64;

  /// One windowed series: the open QoS window's tally, and the points of
  /// closed windows that have not reached the series yet.
  struct Window {
    obs::TimeSeries* series = nullptr;  // null: not exported by this replay
    obs::SeriesPoint open;              // count == 0: nothing recorded yet
    std::vector<obs::SeriesPoint> closed;  // fewer than kWindowBatch

    void add(SimTime at, std::int64_t value) {
      if (open.count == 0) {
        open.min = value;
        open.max = value;
        open.first_time = at;
      } else {
        open.min = std::min(open.min, value);
        open.max = std::max(open.max, value);
        open.first_time = std::min(open.first_time, at);
      }
      open.sum += value;
      ++open.count;
    }
    /// Merge the buffered points into the series under one lock.
    void publish() {
      series->merge(closed);
      closed.clear();
    }
  };
  /// The window table: these scalar series, then win.device.reads per
  /// device, then (win.tenant.reads, win.tenant.shed) per tenant.
  enum Scalar : std::size_t {
    kWinReads, kWinWrites, kWinShed, kWinFailed, kWinDegraded, kWinResponse, kWinQ,
    kScalars
  };
  Window& tenant_window(std::uint32_t tenant, bool shed) {
    return win_[kScalars + devices_ + 2 * std::size_t{tenant} + (shed ? 1 : 0)];
  }

  /// Per-spec samples in the open window; `tenant` is the resolved tenant
  /// index (-1 = all traffic).
  struct SloTally {
    obs::SloKind kind;
    std::int64_t threshold_ns;
    std::int32_t tenant;
    std::uint64_t total = 0;
    std::uint64_t bad = 0;
  };
  /// One sample for every admission-floor (or every response) SLO that
  /// covers `tenant`; `bad(spec)` says whether it is a bad one.
  template <typename Bad>
  void slo_sample(bool admission_floor, std::uint32_t tenant, Bad bad) {
    for (auto& st : slo_) {
      if ((st.kind == obs::SloKind::kAdmissionFloor) != admission_floor) continue;
      if (st.tenant >= 0 && static_cast<std::uint32_t>(st.tenant) != tenant) continue;
      ++st.total;
      if (bad(st)) ++st.bad;
    }
  }

  /// fault.* handles, resolved together on first use.
  struct FaultCounters {
    obs::Counter& outages;
    obs::Counter& spikes;
    obs::Counter& degraded_intervals;
    obs::Counter& retries;
    obs::Counter& timeouts;
    obs::Counter& rebuild_reads;
    obs::Gauge& rebuild_pending;
  };
  FaultCounters& fault();

  /// Close QoS window `window`: buffer every non-empty tally's point, and
  /// send its SLO samples.
  void close_windows(std::int64_t window);
  /// Merge every buffered point into its series.
  void publish_windows();
  void trace_device_op(const DeviceOp& op);
  void trace_outcome(std::uint64_t seq, const RequestOutcome& o);

  [[nodiscard]] static std::int64_t elapsed_ns(Clock::time_point t0) {
    using std::chrono::nanoseconds;
    return std::chrono::duration_cast<nanoseconds>(Clock::now() - t0).count();
  }

  const PipelineConfig& cfg_;
  const fault::FaultInjector& injector_;
  const TenantScheduler* ts_;
  std::uint32_t devices_ = 0;
  std::uint32_t tenants_ = 0;
  bool trace_on_ = false;

  obs::LatencyHistogram* ingest_ns_ = nullptr;
  obs::LatencyHistogram* drain_ns_ = nullptr;
  std::array<obs::Counter*, kTallies> counter_{};
  std::array<obs::Counter*, kPaths> path_counter_{};
  std::vector<obs::LatencyHistogram*> depth_hist_;  // wfq.queue_depth{tenant}
  std::optional<FaultCounters> fault_;

  std::array<obs::LatencyHistogram*, kLatencies> latency_hist_{};

  std::array<std::uint64_t, kTallies> tally_{};
  std::array<std::uint64_t, kPaths> by_path_{};
  std::array<obs::HistogramTally, kLatencies> latency_;
  struct DeviceTally {  // the flashsim.device.* family
    std::uint64_t ops = 0;
    std::uint64_t busy_ns = 0;
  };
  std::vector<DeviceTally> device_;
  std::uint64_t retries_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t degraded_intervals_ = 0;
  std::int64_t last_degraded_qi_ = -1;

  std::vector<Window> win_;
  std::vector<SloTally> slo_;
};

}  // namespace flashqos::core
