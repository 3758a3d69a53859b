// Observability for one replay: the replay engine's only link to src/obs.
// The engine calls ReplayObs at fixed event points; ReplayObs turns them
// into loop tallies published once per replay (a shared counter costs an
// atomic RMW per inc), one table of windowed series merged once per QoS
// rollover, SLO samples fed at the same rollover, latency histogram
// tallies and, while tracing, per-request spans. It only reads what the
// engine hands it, so no result depends on it. Its methods are empty when
// built with FLASHQOS_OBS=OFF; the per-request ones are inline.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>
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
  void drained(Clock::time_point t0) {
    if constexpr (obs::kEnabled) drain_ns_->record(elapsed_ns(t0));
  }

  // ---- per-request event points ------------------------------------------

  /// A read, write replica or rebuild read occupied its device.
  void device_op(const DeviceOp& op) {
    if constexpr (obs::kEnabled) {
      auto& t = device_[op.device];
      ++t.ops;
      t.busy_ns += static_cast<std::uint64_t>(op.finish - op.start);
      if (op.kind == DeviceOpKind::kWrite) ++tally_[kWriteReplicaOps];
      obs::Tracer::global().record({op.request, op.start, op.finish, 0,
                                    static_cast<std::int32_t>(op.device),
                                    obs::EventKind::kDeviceService,
                                    obs::EventDetail::kNone});
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
        response_.add(o.response());
        e2e_.add(o.end_to_end());
        stage_queue_.add(o.dispatch - o.arrival);
        stage_schedule_.add(o.start - o.dispatch);
        stage_service_.add(o.finish - o.start);
        if (o.deferred()) {
          ++tally_[kDeferred];
          delay_.add(o.delay());
        }
      }
      if (trace_on_) trace_outcome(seq, o);
    }
  }

  // ---- interval and replay boundaries -------------------------------------

  /// The rollover at `now` closes QoS window `closed` (none while negative)
  /// after `admitted` admissions: a kInterval record, every non-empty
  /// window tally and every SLO sample go out, and the tenant queue depths
  /// carried across the boundary are sampled.
  void qos_rollover(SimTime now, std::int64_t closed, std::uint64_t admitted);
  /// `n` paced rebuild reads were issued.
  void rebuild_reads(std::size_t n);
  /// End of replay: merge the open window, publish the loop tallies and
  /// the device, fault and WFQ accounting, then flush the histograms.
  void finish(std::int64_t open_window, std::uint64_t requests,
              std::uint64_t deadline_violations);

 private:
  static constexpr std::size_t kPaths = 10;  // RetrievalPath values

  /// Value→count tally for one histogram, written out by flush(). Latency
  /// multisets here usually hold a few distinct values (fixed service quanta
  /// — the flat line), so a short linear scan beats one shared-atomic
  /// record() per outcome; high-cardinality series blow past the cap and
  /// fall through to direct records, where the histogram's overflowed-
  /// tracker fast path keeps the cost bounded.
  class HistogramTally {
   public:
    HistogramTally() = default;
    explicit HistogramTally(obs::LatencyHistogram& h) : hist_(&h) {}

    void add(std::int64_t v) {
      for (auto& [val, n] : items_) {
        if (val == v) {
          ++n;
          return;
        }
      }
      if (items_.size() < kCap) {
        items_.emplace_back(v, 1);
      } else {
        hist_->record(v);
      }
    }

    void flush() {
      for (const auto& [v, n] : items_) hist_->record_n(v, n);
      items_.clear();
    }

   private:
    static constexpr std::size_t kCap = 16;
    obs::LatencyHistogram* hist_ = nullptr;
    std::vector<std::pair<std::int64_t, std::uint64_t>> items_;
  };

  /// Loop tallies, each published to its pipeline.* counter.
  enum Tally : std::size_t {
    kRequests, kReadsServed, kWrites, kFailed, kDeferred, kDeadlineViolations,
    kDispatches, kWriteReplicaOps, kDeferralEvents, kAdmissionOffers, kTallies
  };

  /// One windowed series and the open QoS window's tally for it.
  struct Window {
    obs::TimeSeries* series = nullptr;  // null: not exported by this replay
    std::uint64_t count = 0;
    std::int64_t sum = 0;
    std::int64_t min = 0;
    std::int64_t max = 0;
    SimTime first_time = 0;

    void add(SimTime at, std::int64_t value) {
      if (count == 0) {
        min = value;
        max = value;
        first_time = at;
      } else {
        min = std::min(min, value);
        max = std::max(max, value);
        first_time = std::min(first_time, at);
      }
      sum += value;
      ++count;
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

  void flush_windows(std::int64_t window);
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

  std::array<std::uint64_t, kTallies> tally_{};
  std::array<std::uint64_t, kPaths> by_path_{};
  HistogramTally response_, e2e_, delay_;
  HistogramTally stage_queue_, stage_schedule_, stage_service_;
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
