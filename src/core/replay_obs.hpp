// Observability for one replay: the replay engine's only link to src/obs.
// The engine calls ReplayObs at fixed event points; ReplayObs keeps what
// they report in plain single-writer tallies and publishes it off the
// per-request path:
//  * loop counts go to their counters once, at the end of the replay;
//  * outcomes fold per run: consecutive outcomes with one retrieval path
//    and the same three stage latencies (queue, schedule, service; every
//    other latency is a sum of them) only count up a pending run, and a
//    change of run folds it into the loop tallies and the latency tallies;
//  * latencies go to one obs::HistogramTally per histogram, exact for any
//    number of distinct values, merged at the end of the replay;
//  * each windowed series tallies its open QoS window — a count series
//    (every series but win.response_ns and win.q_ppm) only its count and
//    first time, and win.reads nothing: it is win.response_ns's count — and
//    a dirty list names the series the window touched, so a rollover closes
//    only those into their buffers of points; a buffer is merged into its
//    series under one lock when it fills, at the end of every drain call
//    and at the end of the replay (so a /series scrape between drain calls
//    sees every closed window);
//  * SLO samples go to the SloMonitor at every rollover, window by window
//    (burn-rate state depends on their order);
//  * trace records, while tracing: the tracer's enabled flag is read once
//    per replay, in the constructor, and the tracer is not called again
//    when it was off.
// With the tracer off, the per-request hooks make no atomic operation,
// lock or out-of-line call but flush_run(), once per run of outcomes.
// ReplayObs only reads what the engine hands it, so no result depends on
// it. Its methods are empty when built with FLASHQOS_OBS=OFF; the
// per-request ones are inline.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <limits>
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
      win_value(kWinResponse, at, resp);  // and win.reads, which is its count
      win_count(kScalars + o.device, at);
      if (win_q_) win_value(kWinQ, at, o.q_ppm);
      if (o.path == RetrievalPath::kDegraded) win_count(kWinDegraded, at);
      if (tenants_ > 0) win_count(tenant_window(o.tenant, false), at);
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
        win_count(kWinShed, now);
        win_count(tenant_window(tenant, true), now);
      }
    }
  }

  void write_fanned_out(SimTime now) {
    if constexpr (obs::kEnabled) win_count(kWinWrites, now);
  }
  /// Every replica down, and no recovery within reach.
  void read_failed(SimTime now) {
    if constexpr (obs::kEnabled) win_count(kWinFailed, now);
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

  /// Outcome `seq` left the engine's window (trace order). It continues
  /// the pending run when its path and stage latencies equal the run's;
  /// otherwise the run is folded and a new one starts.
  void outcome(std::uint64_t seq, const RequestOutcome& o) {
    if constexpr (obs::kEnabled) {
      const std::int64_t queue = o.dispatch - o.arrival;
      const std::int64_t schedule = o.start - o.dispatch;
      const std::int64_t service = o.finish - o.start;
      // One test for the four fields: any difference leaves a bit set.
      const auto differs = static_cast<std::uint64_t>(queue ^ run_.queue) |
                           static_cast<std::uint64_t>(schedule ^ run_.schedule) |
                           static_cast<std::uint64_t>(service ^ run_.service) |
                           static_cast<std::uint64_t>(o.path != run_.path);
      if (differs != 0) {
        flush_run();
        run_ = {queue, schedule, service, 0, o.path, o.failed, o.is_write};
      }
      ++run_.n;
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

  /// One windowed series: where it is exported, and the points of closed
  /// windows that have not reached it yet.
  struct Window {
    obs::TimeSeries* series = nullptr;  // null: not exported by this replay
    std::vector<obs::SeriesPoint> closed;  // fewer than kWindowBatch

    /// Merge the buffered points into the series under one lock.
    void publish() {
      series->merge(closed);
      closed.clear();
    }
  };
  /// The window table: these scalar series, then win.device.reads per
  /// device, then (win.tenant.reads, win.tenant.shed) per tenant. Every
  /// series but the two value series counts events: each record is 1, so
  /// its point is {sum = count, min = max = 1}. win.reads is never recorded:
  /// every served read records one win.response_ns value at the same
  /// instant, so win.reads' point is win.response_ns's count and first time.
  /// The value series come last: values_ is indexed from kWinResponse.
  enum Scalar : std::size_t {
    kWinReads, kWinWrites, kWinShed, kWinFailed, kWinDegraded, kWinResponse, kWinQ,
    kScalars
  };
  [[nodiscard]] std::size_t tenant_window(std::uint32_t tenant, bool shed) const {
    return kScalars + devices_ + 2 * std::size_t{tenant} + (shed ? 1 : 0);
  }

  /// The open QoS window's records of one series.
  struct WinTally {
    std::uint64_t count = 0;
    SimTime first_time = std::numeric_limits<SimTime>::max();
  };
  /// What the value series (win.response_ns, win.q_ppm) keep besides.
  struct WinValues {
    std::int64_t sum = 0;
    std::int64_t min = std::numeric_limits<std::int64_t>::max();
    std::int64_t max = std::numeric_limits<std::int64_t>::min();
  };
  /// One event of count series `i` at `at`. The window's first record of
  /// a series appends it to the dirty list, without a branch: the index is
  /// always written past the list's end, and the end moves only then.
  void win_count(std::size_t i, SimTime at) {
    WinTally& t = open_[i];
    dirty_[dirty_n_] = static_cast<std::uint32_t>(i);
    dirty_n_ += static_cast<std::size_t>(t.count == 0);
    ++t.count;
    t.first_time = std::min(t.first_time, at);
  }
  void win_value(std::size_t i, SimTime at, std::int64_t value) {
    win_count(i, at);
    WinValues& v = values_[i - kWinResponse];
    v.sum += value;
    v.min = std::min(v.min, value);
    v.max = std::max(v.max, value);
  }

  /// Consecutive outcomes that fold alike: one path and one set of stage
  /// latencies (the path decides `failed` and `is_write`).
  struct Run {
    std::int64_t queue = 0;     // dispatch - arrival
    std::int64_t schedule = 0;  // start - dispatch
    std::int64_t service = 0;   // finish - start
    std::uint64_t n = 0;
    RetrievalPath path = RetrievalPath::kUnset;
    bool failed = false;
    bool is_write = false;
  };
  /// Fold the pending run into the path, loop and latency tallies.
  void flush_run();

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

  /// Close QoS window `window`: buffer a point for every series it
  /// touched, and send its SLO samples.
  void close_windows(std::int64_t window);
  /// Append a closed window's point to series `i`'s buffer.
  void buffer(std::size_t i, std::int64_t window, std::int64_t sum, std::uint64_t count,
              std::int64_t min, std::int64_t max, SimTime first_time);
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

  Run run_;
  std::vector<WinTally> open_;                // per series
  std::array<WinValues, kScalars - kWinResponse> values_{};  // per value series
  std::vector<std::uint32_t> dirty_;          // one slot per series, and a spare
  std::size_t dirty_n_ = 0;
  bool win_q_ = false;                        // win.q_ppm is exported
  std::vector<Window> win_;
  std::vector<SloTally> slo_;
};

}  // namespace flashqos::core
