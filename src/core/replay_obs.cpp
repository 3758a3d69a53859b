#include "core/replay_obs.hpp"

#include <cmath>
#include <string>

#include "core/tenant_scheduler.hpp"
#include "fault/injector.hpp"
#include "util/expect.hpp"

namespace flashqos::core {
namespace {

/// The pipeline.* counter each loop tally publishes to, in tally order.
constexpr std::array<const char*, 10> kTallyCounters = {
    "pipeline.requests",           "pipeline.reads_served",
    "pipeline.writes",             "pipeline.failed",
    "pipeline.deferred",           "pipeline.deadline_violations",
    "pipeline.dispatches",         "pipeline.write_replica_ops",
    "pipeline.deferral_events",    "pipeline.admission_offers"};

obs::EventDetail trace_detail(RetrievalPath path) noexcept {
  switch (path) {
    case RetrievalPath::kUnset: return obs::EventDetail::kNone;
    case RetrievalPath::kPrimary: return obs::EventDetail::kPrimary;
    case RetrievalPath::kSlotMatched: return obs::EventDetail::kSlotMatched;
    case RetrievalPath::kSurplus: return obs::EventDetail::kSurplus;
    case RetrievalPath::kAlignedDtr: return obs::EventDetail::kDtrFastPath;
    case RetrievalPath::kAlignedMaxFlow: return obs::EventDetail::kMaxFlowFallback;
    case RetrievalPath::kDegraded: return obs::EventDetail::kDegraded;
    case RetrievalPath::kWrite: return obs::EventDetail::kWrite;
    case RetrievalPath::kFailed: return obs::EventDetail::kNone;
    case RetrievalPath::kShed: return obs::EventDetail::kNone;
  }
  return obs::EventDetail::kNone;
}

std::string label(const char* key, const std::string& value) {
  return std::string(key) + "=\"" + value + "\"";
}

}  // namespace

ReplayObs::ReplayObs(const PipelineConfig& cfg, std::uint32_t devices,
                     const fault::FaultInjector& injector, const TenantScheduler* ts)
    : cfg_(cfg),
      injector_(injector),
      ts_(ts),
      devices_(devices),
      tenants_(static_cast<std::uint32_t>(cfg.tenants.size())) {
  if constexpr (obs::kEnabled) {
    auto& reg = obs::MetricRegistry::global();
    ingest_ns_ = &reg.histogram("pipeline.interval_ns", label("stage", "ingest"));
    drain_ns_ = &reg.histogram("pipeline.interval_ns", label("stage", "drain"));
    static_assert(kTallyCounters.size() == kTallies);
    for (std::size_t i = 0; i < kTallies; ++i) {
      counter_[i] = &reg.counter(kTallyCounters[i]);
    }
    for (std::size_t i = 0; i < kPaths; ++i) {
      path_counter_[i] = &reg.counter(
          "pipeline.path", label("path", to_string(static_cast<RetrievalPath>(i))));
    }
    latency_hist_[kResponse] = &reg.histogram("pipeline.response_ns");
    latency_hist_[kE2e] = &reg.histogram("pipeline.e2e_ns");
    latency_hist_[kDelay] = &reg.histogram("pipeline.delay_ns");
    // Per-request latency attribution: where each served read spent its
    // life — queue (arrival → dispatch), schedule (dispatch → first device
    // access), service (first access → completion).
    const auto stage = [&](const char* name) {
      return &reg.histogram("pipeline.stage_ns", label("stage", name));
    };
    latency_hist_[kStageQueue] = stage("queue");
    latency_hist_[kStageSchedule] = stage("schedule");
    latency_hist_[kStageService] = stage("service");
    for (const auto& s : cfg.tenants) {
      depth_hist_.push_back(&reg.histogram("wfq.queue_depth", label("tenant", s.name)));
    }
    device_.resize(devices);
    trace_on_ = obs::Tracer::global().enabled();

    auto& tsr = obs::TimeSeriesRegistry::global();
    const auto series = [&](const char* name, const std::string& labels = {}) {
      return &tsr.series(name, labels, cfg.qos_interval);
    };
    const bool stat = cfg.admission == AdmissionMode::kStatistical;
    const bool tenant_mode = tenants_ > 0;
    win_.resize(kScalars + devices + 2 * tenants_);
    win_[kWinReads].series = series("win.reads");
    win_[kWinWrites].series = series("win.writes");
    if (tenant_mode) win_[kWinShed].series = series("win.shed");
    win_[kWinFailed].series = series("win.failed");
    win_[kWinDegraded].series = series("win.degraded");
    win_[kWinResponse].series = series("win.response_ns");
    if (stat) win_[kWinQ].series = series("win.q_ppm");
    for (DeviceId d = 0; d < devices; ++d) {
      win_[kScalars + d].series =
          series("win.device.reads", label("device", std::to_string(d)));
    }
    for (std::uint32_t k = 0; k < tenants_; ++k) {
      const std::string tenant = label("tenant", cfg.tenants[k].name);
      win_[tenant_window(k, false)].series = series("win.tenant.reads", tenant);
      win_[tenant_window(k, true)].series = series("win.tenant.shed", tenant);
    }
    for (auto& w : win_) {
      if (w.series != nullptr) w.closed.reserve(kWindowBatch);
    }
    win_q_ = stat;
    open_.resize(win_.size());
    dirty_.resize(win_.size() + 1);

    if (!cfg.slos.empty()) {
      obs::SloMonitor::global().configure(cfg.slos);
      for (const auto& spec : cfg.slos) {
        std::int32_t tid = -1;
        for (std::size_t k = 0; k < cfg.tenants.size(); ++k) {
          if (cfg.tenants[k].name == spec.tenant) tid = static_cast<std::int32_t>(k);
        }
        slo_.push_back({spec.kind, spec.threshold_ns, tid, 0, 0});
      }
    }

    if (const auto pending = injector.rebuild_reads_total(); pending > 0) {
      fault().rebuild_pending.add(static_cast<std::int64_t>(pending));
    }
  }
}

ReplayObs::FaultCounters& ReplayObs::fault() {
  if (!fault_.has_value()) {
    auto& reg = obs::MetricRegistry::global();
    fault_.emplace(FaultCounters{reg.counter("fault.injected.outages"),
                                 reg.counter("fault.injected.spikes"),
                                 reg.counter("fault.degraded_intervals"),
                                 reg.counter("fault.retries"),
                                 reg.counter("fault.timeouts"),
                                 reg.counter("fault.rebuild.reads"),
                                 reg.gauge("fault.rebuild.pending_reads")});
  }
  return *fault_;
}

void ReplayObs::close_windows(std::int64_t window) {
  // Only series recorded in this window are closed into a point: the
  // others hold no data, and a window with no dispatch instant closes none.
  for (std::size_t k = 0; k < dirty_n_; ++k) {
    std::size_t i = dirty_[k];
    const WinTally t = open_[i];
    open_[i] = {};
    FLASHQOS_EXPECT(t.count > 0, "a dirty-listed series has records in its window");
    if (i >= kWinResponse && i < kScalars) {
      WinValues& v = values_[i - kWinResponse];
      buffer(i, window, v.sum, t.count, v.min, v.max, t.first_time);
      v = {};
      if (i != kWinResponse) continue;
      i = kWinReads;  // one served read per win.response_ns record
    }
    buffer(i, window, static_cast<std::int64_t>(t.count), t.count, 1, 1, t.first_time);
  }
  dirty_n_ = 0;
  for (std::size_t si = 0; si < slo_.size(); ++si) {
    auto& st = slo_[si];
    obs::SloMonitor::global().record(si, window, st.total, st.bad);
    st.total = 0;
    st.bad = 0;
  }
}

void ReplayObs::buffer(std::size_t i, std::int64_t window, std::int64_t sum,
                       std::uint64_t count, std::int64_t min, std::int64_t max,
                       SimTime first_time) {
  Window& w = win_[i];
  w.closed.push_back({.window = window,
                      .sum = sum,
                      .count = count,
                      .min = min,
                      .max = max,
                      .first_time = first_time});
  if (w.closed.size() == kWindowBatch) w.publish();
}

void ReplayObs::flush_run() {
  const Run& r = run_;
  if (r.n == 0) return;
  by_path_[static_cast<std::size_t>(r.path)] += r.n;
  if (r.failed) {
    tally_[kFailed] += r.n;
  } else if (r.is_write) {
    tally_[kWrites] += r.n;
  } else {
    tally_[kReadsServed] += r.n;
    const std::int64_t response = r.schedule + r.service;  // finish - dispatch
    latency_[kResponse].add_n(response, r.n);
    latency_[kE2e].add_n(r.queue + response, r.n);  // finish - arrival
    latency_[kStageQueue].add_n(r.queue, r.n);
    latency_[kStageSchedule].add_n(r.schedule, r.n);
    latency_[kStageService].add_n(r.service, r.n);
    if (r.queue > 0) {  // deferred: dispatched after it arrived
      tally_[kDeferred] += r.n;
      latency_[kDelay].add_n(r.queue, r.n);
    }
  }
}

void ReplayObs::publish_windows() {
  // Each series' points merge in the order their windows closed, so point
  // content and `evicted` are what one merge per closed window leaves.
  for (auto& w : win_) {
    if (!w.closed.empty()) w.publish();
  }
}

void ReplayObs::qos_rollover(SimTime now, std::int64_t closed, std::uint64_t admitted) {
  if constexpr (obs::kEnabled) {
    if (closed >= 0) {
      if (trace_on_) {
        obs::Tracer::global().record({-1, now, now, static_cast<std::int64_t>(admitted),
                                      -1, obs::EventKind::kInterval,
                                      obs::EventDetail::kNone});
      }
      close_windows(closed);
    }
    for (std::size_t k = 0; k < depth_hist_.size(); ++k) {
      depth_hist_[k]->record(static_cast<std::int64_t>(ts_->depth(k)));
    }
  }
}

void ReplayObs::rebuild_reads(std::size_t n) {
  if constexpr (obs::kEnabled) {
    if (n == 0) return;
    fault().rebuild_reads.inc(n);
    fault().rebuild_pending.add(-static_cast<std::int64_t>(n));
  }
}

void ReplayObs::finish(std::int64_t open_window, std::uint64_t requests,
                       std::uint64_t deadline_violations) {
  if constexpr (obs::kEnabled) {
    flush_run();
    if (open_window >= 0) close_windows(open_window);
    publish_windows();
    auto& reg = obs::MetricRegistry::global();
    std::uint64_t device_ops = 0;
    for (std::size_t d = 0; d < device_.size(); ++d) {
      const std::string device = label("device", std::to_string(d));
      reg.counter("flashsim.device.requests", device).inc(device_[d].ops);
      reg.counter("flashsim.device.busy_ns", device).inc(device_[d].busy_ns);
      device_ops += device_[d].ops;
    }
    reg.counter("flashsim.submits").inc(device_ops);
    if (injector_.active()) {
      auto& f = fault();
      f.outages.inc(injector_.compiled().outages.size());
      f.spikes.inc(injector_.compiled().spikes.size());
      f.degraded_intervals.inc(degraded_intervals_);
      f.retries.inc(retries_);
      f.timeouts.inc(timeouts_);
      // Rebuild reads due after the last dispatch instant never run (the
      // trace ended); return their pending-gauge contribution so the gauge
      // reads 0 between replays.
      const auto leftover = static_cast<std::int64_t>(injector_.rebuild_reads_total() -
                                                      injector_.rebuild_reads_issued());
      if (leftover > 0) f.rebuild_pending.add(-leftover);
    }
    if (ts_ != nullptr) {
      // wfq.vtime accumulates virtual-clock progress (micro-units) across
      // replays.
      reg.gauge("wfq.vtime").add(std::llround(ts_->virtual_time() * 1e6));
      for (std::size_t k = 0; k < ts_->tenants(); ++k) {
        const auto& u = ts_->usage(k);
        const std::string tenant = label("tenant", cfg_.tenants[k].name);
        if (u.arrivals > 0) reg.counter("wfq.arrivals", tenant).inc(u.arrivals);
        if (u.admitted > 0) reg.counter("wfq.admitted", tenant).inc(u.admitted);
        if (u.shed > 0) reg.counter("wfq.shed", tenant).inc(u.shed);
        if (u.marked > 0) reg.counter("wfq.marked", tenant).inc(u.marked);
      }
    }
    tally_[kRequests] = requests;
    tally_[kDeadlineViolations] = deadline_violations;
    for (std::size_t i = 0; i < kTallies; ++i) counter_[i]->inc(tally_[i]);
    for (std::size_t i = 0; i < kPaths; ++i) path_counter_[i]->inc(by_path_[i]);
    for (std::size_t i = 0; i < kLatencies; ++i) latency_hist_[i]->merge(latency_[i]);
  }
}

void ReplayObs::trace_device_op(const DeviceOp& op) {
  obs::Tracer::global().record({op.request, op.start, op.finish, 0,
                                static_cast<std::int32_t>(op.device),
                                obs::EventKind::kDeviceService, obs::EventDetail::kNone});
}

void ReplayObs::trace_outcome(std::uint64_t seq, const RequestOutcome& o) {
  // TraceEvent fields: {request, start, end, value, device, kind, detail}.
  using K = obs::EventKind;
  using D = obs::EventDetail;
  auto& tracer = obs::Tracer::global();
  const auto req = static_cast<std::int64_t>(seq);
  const std::int32_t dev =
      o.device == kInvalidDevice ? -1 : static_cast<std::int32_t>(o.device);
  const D verdict = o.failed ? D::kRejected : o.deferred() ? D::kDeferred : D::kAdmitted;
  tracer.record({req, o.arrival, o.arrival, 0, -1, K::kArrival, D::kNone});
  tracer.record({req, o.dispatch, o.dispatch, o.q_ppm, -1, K::kAdmission, verdict});
  tracer.record({req, o.dispatch, o.finish, 0, dev, K::kRetrieval, trace_detail(o.path)});
  // Stage slices exist only for served reads: failed/shed requests never
  // reach the device and writes follow the replication path instead.
  if (o.failed || o.is_write) return;
  tracer.record({req, o.arrival, o.dispatch, o.dispatch - o.arrival, -1, K::kStage,
                 D::kStageQueue});
  tracer.record({req, o.dispatch, o.start, o.start - o.dispatch, -1, K::kStage,
                 D::kStageSchedule});
  tracer.record({req, o.start, o.finish, o.finish - o.start, dev, K::kStage,
                 D::kStageService});
}

}  // namespace flashqos::core
