#include "verify/obs_check.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "core/qos_pipeline.hpp"
#include "core/sampler.hpp"
#include "design/block_design.hpp"
#include "fault/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/tracer.hpp"
#include "retrieval/maxflow.hpp"
#include "trace/synthetic.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

namespace flashqos::verify {
namespace {

inline constexpr std::size_t kPathCount = 10;

/// Ground truth recomputed from the replay results the registry claims to
/// describe — the same fold the engine's per-outcome observability pass
/// performs.
struct Tally {
  std::uint64_t requests = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t failed = 0;
  std::uint64_t deferred = 0;
  std::uint64_t violations = 0;
  std::int64_t response_sum = 0;
  // Served reads' lifecycle stages: arrival → dispatch → start → finish.
  std::int64_t queue_sum = 0;
  std::int64_t schedule_sum = 0;
  std::int64_t service_sum = 0;  // device time of served reads
  std::array<std::uint64_t, kPathCount> by_path{};
};

void tally(const core::PipelineResult& r, Tally& t) {
  t.requests += r.outcomes.size();
  t.violations += r.deadline_violations;
  for (const auto& o : r.outcomes) {
    ++t.by_path[static_cast<std::size_t>(o.path)];
    if (o.failed) {
      ++t.failed;
      continue;
    }
    if (o.is_write) {
      ++t.writes;
      continue;
    }
    ++t.reads;
    t.response_sum += o.response();
    t.queue_sum += o.dispatch - o.arrival;
    t.schedule_sum += o.start - o.dispatch;
    t.service_sum += o.finish - o.start;
    if (o.deferred()) ++t.deferred;
  }
}

/// The six latency histograms a replay publishes, rebuilt from the
/// outcomes it returned: one record() per served read (per deferred read
/// for the delay) into a reference histogram each.
struct LatencyOracle {
  enum : std::size_t { kResponse, kE2e, kDelay, kQueue, kSchedule, kService, kCount };
  static constexpr std::array<std::pair<const char*, const char*>, kCount> kNames = {{
      {"pipeline.response_ns", ""},
      {"pipeline.e2e_ns", ""},
      {"pipeline.delay_ns", ""},
      {"pipeline.stage_ns", "stage=\"queue\""},
      {"pipeline.stage_ns", "stage=\"schedule\""},
      {"pipeline.stage_ns", "stage=\"service\""},
  }};
  std::array<obs::LatencyHistogram, kCount> ref;

  void add_run(const core::PipelineResult& r) {
    for (const auto& o : r.outcomes) {
      if (o.failed || o.is_write) continue;
      ref[kResponse].record(o.response());
      ref[kE2e].record(o.end_to_end());
      if (o.deferred()) ref[kDelay].record(o.delay());
      ref[kQueue].record(o.dispatch - o.arrival);
      ref[kSchedule].record(o.start - o.dispatch);
      ref[kService].record(o.finish - o.start);
    }
  }
};

/// Expected content of one windowed-series point, built with the same
/// associative/commutative merges obs::TimeSeries uses.
struct WinPoint {
  std::int64_t sum = 0;
  std::uint64_t count = 0;
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

/// Ground truth for the windowed time-series: every record the pipeline's
/// window tallies should have produced, rederived from returned outcomes
/// with the documented rules (dispatch-instant keyed, one record per
/// outcome per applicable series). Windows merge in a map, so the expected
/// content is order-independent — exactly the series determinism contract.
struct WindowOracle {
  struct ExpSeries {
    SimTime width = 0;
    std::map<std::int64_t, WinPoint> windows;
  };
  std::map<std::pair<std::string, std::string>, ExpSeries> series;

  void rec(const std::string& name, const std::string& labels, SimTime width,
           SimTime at, std::int64_t value) {
    auto& s = series[{name, labels}];
    s.width = width;
    s.windows[at / width].add(at, value);
  }

  void add_run(const core::PipelineConfig& cfg, const core::PipelineResult& r) {
    const SimTime T = cfg.qos_interval;
    const bool stat_mode = cfg.admission == core::AdmissionMode::kStatistical;
    const bool tenant_mode = !cfg.tenants.empty();
    for (const auto& o : r.outcomes) {
      const SimTime at = o.dispatch;
      if (o.is_write) {
        rec("win.writes", "", T, at, 1);
        continue;
      }
      if (o.failed) {
        if (o.path == core::RetrievalPath::kShed) {
          rec("win.shed", "", T, at, 1);
          rec("win.tenant.shed",
              "tenant=\"" + cfg.tenants[o.tenant].name + "\"", T, at, 1);
        } else {
          rec("win.failed", "", T, at, 1);
        }
        continue;
      }
      rec("win.reads", "", T, at, 1);
      rec("win.response_ns", "", T, at, o.response());
      rec("win.device.reads", "device=\"" + std::to_string(o.device) + "\"", T,
          at, 1);
      if (stat_mode) rec("win.q_ppm", "", T, at, o.q_ppm);
      if (o.path == core::RetrievalPath::kDegraded) {
        rec("win.degraded", "", T, at, 1);
      }
      if (tenant_mode) {
        rec("win.tenant.reads",
            "tenant=\"" + cfg.tenants[o.tenant].name + "\"", T, at, 1);
      }
    }
  }

  /// The ring-retention rule: per residue class (window mod capacity) only
  /// the highest window ever recorded survives to the snapshot.
  static std::map<std::int64_t, WinPoint> retained(
      const std::map<std::int64_t, WinPoint>& all, std::size_t capacity) {
    const auto cap = static_cast<std::int64_t>(capacity);
    std::map<std::int64_t, std::int64_t> newest;  // residue -> window
    for (const auto& [w, p] : all) {
      auto [it, fresh] = newest.try_emplace(w % cap, w);
      if (!fresh && w > it->second) it->second = w;
    }
    std::map<std::int64_t, WinPoint> out;
    for (const auto& [res, w] : newest) out.emplace(w, all.at(w));
    return out;
  }
};

/// Count exact-equality divergences between the expected windows and an
/// exported snapshot, in both directions. `first_diff` (optional) receives
/// a description of the first divergence for the report.
std::uint64_t window_divergences(const WindowOracle& oracle,
                                 const obs::TimeSeriesSnapshot& snap,
                                 std::string* first_diff) {
  std::uint64_t diverged = 0;
  const auto note = [&](const std::string& msg) {
    ++diverged;
    if (first_diff != nullptr && first_diff->empty()) *first_diff = msg;
  };
  for (const auto& [key, exp] : oracle.series) {
    const std::string id = key.first + "{" + key.second + "}";
    const auto* s = snap.find(key.first, key.second);
    if (s == nullptr) {
      note("missing series " + id);
      continue;
    }
    if (s->width != exp.width) note(id + ": width mismatch");
    const auto want = WindowOracle::retained(exp.windows,
                                             obs::kDefaultSeriesCapacity);
    if (s->points.size() != want.size()) {
      note(id + ": " + std::to_string(s->points.size()) + " points != expected " +
           std::to_string(want.size()));
    }
    for (const auto& [w, p] : want) {
      const auto* got = s->find_window(w);
      if (got == nullptr) {
        note(id + ": missing window " + std::to_string(w));
        continue;
      }
      if (got->sum != p.sum || got->count != p.count || got->min != p.min ||
          got->max != p.max || got->first_time != p.first_time) {
        note(id + " window " + std::to_string(w) + ": {sum=" +
             std::to_string(got->sum) + ",count=" + std::to_string(got->count) +
             ",min=" + std::to_string(got->min) + ",max=" +
             std::to_string(got->max) + ",first=" +
             std::to_string(got->first_time) + "} != expected {sum=" +
             std::to_string(p.sum) + ",count=" + std::to_string(p.count) +
             ",min=" + std::to_string(p.min) + ",max=" + std::to_string(p.max) +
             ",first=" + std::to_string(p.first_time) + "}");
      }
    }
  }
  // The reverse direction: an exported non-empty series the outcomes cannot
  // explain is fiction. (Empty series are fine — created by a replay that
  // never produced the quantity.)
  for (const auto& s : snap.series) {
    if (s.points.empty()) continue;
    if (oracle.series.find({s.name, s.labels}) == oracle.series.end()) {
      note("unexpected series " + s.name + "{" + s.labels + "}");
    }
  }
  return diverged;
}

/// `nonzero` also fails 0 == 0: an instrument nothing records into must
/// not pass by matching another one.
void check_eq(Report& report, const std::string& name, std::uint64_t got,
              std::uint64_t want, bool nonzero = false) {
  const bool ok = got == want && (!nonzero || want > 0);
  report.add(nonzero ? name + " (> 0)" : name, ok,
             ok ? std::string{}
                : std::to_string(got) + " != expected " + std::to_string(want));
}

std::uint64_t cval(const obs::MetricsSnapshot& snap, std::string_view name,
                   std::string_view labels = {}) {
  const auto* c = snap.find_counter(name, labels);
  return c != nullptr ? c->value : 0;
}

/// An unlabelled gauge's value; an absent gauge reads as 0.
std::int64_t gval(const obs::MetricsSnapshot& snap, std::string_view name) {
  for (const auto& g : snap.gauges) {
    if (g.name == name && g.labels.empty()) return g.value;
  }
  return 0;
}

/// The largest value a gauge holds while a replay folds its outcomes.
class GaugePeak final : public core::OutcomeSink {
 public:
  explicit GaugePeak(const obs::Gauge& gauge) : gauge_(gauge) {}
  void on_outcome(std::uint64_t /*seq*/, const trace::TraceEvent& /*ev*/,
                  const core::RequestOutcome& /*out*/) override {
    peak = std::max(peak, gauge_.value());
  }
  std::int64_t peak = 0;

 private:
  const obs::Gauge& gauge_;
};

/// Every histogram must account for exactly the events recorded into it:
/// bucket counts sum to `count`, the exact multiset (when held) sums to it
/// too, and nearest-rank percentiles are monotone and bounded by max.
void check_histogram_consistency(Report& report, const obs::MetricsSnapshot& snap) {
  for (const auto& h : snap.histograms) {
    const std::string label =
        h.labels.empty() ? h.name : h.name + "{" + h.labels + "}";
    std::uint64_t bucket_sum = 0;
    for (const auto& b : h.buckets) bucket_sum += b.count;
    check_eq(report, label + ": bucket counts sum to count", bucket_sum, h.count);
    if (h.exact) {
      std::uint64_t value_sum = 0;
      for (const auto& [v, c] : h.values) value_sum += c;
      check_eq(report, label + ": exact values sum to count", value_sum, h.count);
    }
    if (h.count > 0) {
      const auto p50 = h.percentile(0.50);
      const auto p95 = h.percentile(0.95);
      const auto p99 = h.percentile(0.99);
      const bool monotone = p50 <= p95 && p95 <= p99 && p99 <= h.max &&
                            (!h.exact || (h.min <= p50 && h.percentile(1.0) == h.max));
      report.add(label + ": percentiles monotone within [min, max]", monotone,
                 monotone ? std::string{}
                          : "p50=" + std::to_string(p50) +
                                " p95=" + std::to_string(p95) +
                                " p99=" + std::to_string(p99) +
                                " min=" + std::to_string(h.min) +
                                " max=" + std::to_string(h.max));
    }
  }
}

}  // namespace

std::string histogram_mismatch(const obs::HistogramSnapshot& got,
                               const obs::HistogramSnapshot& want) {
  const auto field = [](const char* name, auto g, auto w) {
    return std::string(name) + " " + std::to_string(g) + " != expected " +
           std::to_string(w);
  };
  if (got.count != want.count) return field("count", got.count, want.count);
  if (got.sum != want.sum) return field("sum", got.sum, want.sum);
  if (got.min != want.min) return field("min", got.min, want.min);
  if (got.max != want.max) return field("max", got.max, want.max);
  if (got.exact != want.exact) return field("exact", got.exact, want.exact);
  if (got.values != want.values) {
    return field("distinct values", got.values.size(), want.values.size()) +
           " (or a value or count differs)";
  }
  const std::size_t n = std::min(got.buckets.size(), want.buckets.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& g = got.buckets[i];
    const auto& w = want.buckets[i];
    if (g.lo != w.lo || g.hi != w.hi || g.count != w.count) {
      return "bucket " + std::to_string(i) + " [" + std::to_string(g.lo) + ", " +
             std::to_string(g.hi) + ") x" + std::to_string(g.count) + " != expected [" +
             std::to_string(w.lo) + ", " + std::to_string(w.hi) + ") x" +
             std::to_string(w.count);
    }
  }
  if (got.buckets.size() != want.buckets.size()) {
    return field("non-empty buckets", got.buckets.size(), want.buckets.size());
  }
  return {};
}

Report verify_observability(const decluster::AllocationScheme& scheme,
                            const ObsCheckParams& params) {
  Report report("observability N=" + std::to_string(scheme.devices()));
  if constexpr (!obs::kEnabled) {
    report.add("skipped (FLASHQOS_OBS=OFF)", true,
               "instrumentation compiled out of this build");
    return report;
  } else {
    auto& reg = obs::MetricRegistry::global();
    auto& tsr = obs::TimeSeriesRegistry::global();
    auto& tracer = obs::Tracer::global();
    const bool tracer_was_enabled = tracer.enabled();
    tracer.set_enabled(false);
    reg.reset();
    tsr.reset();

    // Traces: a bucket-domain synthetic stream, the Exchange-style block
    // stream, and an Exchange variant with writes mixed in.
    trace::SyntheticParams sp;
    sp.bucket_pool = scheme.buckets();
    sp.requests_per_interval = 4;
    sp.total_requests = 2000;
    sp.seed = params.seed;
    const auto synthetic = trace::generate_synthetic(sp);
    const auto exchange = trace::generate_workload(
        trace::exchange_params(params.trace_scale, params.seed));
    auto wp = trace::exchange_params(params.trace_scale, params.seed);
    wp.write_fraction = 0.2;
    const auto with_writes = trace::generate_workload(wp);

    const auto p_table = core::sample_optimal_probabilities(
        scheme, 24, {.samples_per_size = params.p_samples, .seed = params.seed});

    // Serial replays chosen to exercise every retrieval path and every
    // instrumented subsystem at least once. The tally mirrors the
    // registry's own post-run fold, from the returned outcomes.
    // Each replay also adds its compiled fault plan to the expected
    // fault.injected counts, and must leave no rebuild read pending.
    Tally want;
    WindowOracle win_oracle;
    LatencyOracle latency_oracle;
    std::uint64_t want_outages = 0;
    std::uint64_t want_spikes = 0;
    std::uint64_t left_pending = 0;  // replays that ended with reads pending
    const auto run = [&](const core::PipelineConfig& cfg, const trace::Trace& t) {
      auto r = core::QosPipeline(scheme, cfg).run(t);
      win_oracle.add_run(cfg, r);
      latency_oracle.add_run(r);
      tally(r, want);
      const auto plan =
          fault::compile(cfg.faults, scheme, t.duration() + cfg.qos_interval);
      if (plan.active()) {
        want_outages += plan.outages.size();
        want_spikes += plan.spikes.size();
      }
      if (gval(reg.snapshot(), "fault.rebuild.pending_reads") != 0) ++left_pending;
      return r;
    };

    core::PipelineConfig online_det;  // slot matching, the flat line
    run(online_det, synthetic);

    core::PipelineConfig aligned_none;  // batch DTR + max-flow, no admission
    aligned_none.retrieval = core::RetrievalMode::kIntervalAligned;
    aligned_none.admission = core::AdmissionMode::kNone;
    aligned_none.mapping = core::MappingMode::kModulo;
    run(aligned_none, exchange);

    core::PipelineConfig online_stat;  // statistical admission: Q series
    online_stat.admission = core::AdmissionMode::kStatistical;
    online_stat.epsilon = 0.01;
    online_stat.p_table = p_table;
    run(online_stat, exchange);

    core::PipelineConfig aligned_failures;  // degraded retrieval
    aligned_failures.retrieval = core::RetrievalMode::kIntervalAligned;
    aligned_failures.faults.outages.push_back(
        {.device = 0, .fail_at = from_ms(1.0), .recover_at = from_ms(6.0)});
    aligned_failures.faults.outages.push_back(
        {.device = scheme.devices() - 1,
         .fail_at = from_ms(2.0),
         .recover_at = fault::DeviceFailure::kNeverRecovers});
    run(aligned_failures, exchange);

    core::PipelineConfig online_writes;  // replicated page programs
    run(online_writes, with_writes);

    core::PipelineConfig primary_only;  // the RAID-1 baseline path
    primary_only.scheduler = core::SchedulerMode::kPrimaryOnly;
    run(primary_only, synthetic);

    // Over budget, shaped like one on/off cycle: 10 distinct buckets at
    // each of 64 interval starts (2·S on (9,3,1)), then idle while the
    // backlog of deferred reads drains — the regime whose e2e, queue and
    // delay latencies spread past the exact tracker's capacity.
    {
      trace::SyntheticParams op = sp;
      op.requests_per_interval = 10;
      op.total_requests = 64 * 10;
      run(core::PipelineConfig{}, trace::generate_synthetic(op));
    }

    // Multi-tenant WFQ config tuned to shed: bronze's per-boundary burst
    // (12) exceeds its queue capacity (4), so the kShed path and the
    // per-tenant window series are exercised every interval.
    core::PipelineConfig tenant_wfq;
    tenant_wfq.tenants = {{.name = "gold",
                           .weight = 3.0,
                           .reservation = 2,
                           .queue_capacity = 16,
                           .mark_threshold = 12},
                          {.name = "bronze",
                           .weight = 1.0,
                           .reservation = 0,
                           .queue_capacity = 4,
                           .mark_threshold = 3}};
    trace::MultiTenantParams mt;
    mt.intervals = 60;
    mt.tenants = {{.requests_per_interval = 3, .bucket_pool = 6},
                  {.requests_per_interval = 12, .bucket_pool = 6}};
    mt.seed = params.seed;
    const auto tenant_result = run(tenant_wfq, trace::generate_multi_tenant(mt));

    // SLO config: a latency spike on every device turns a known span of
    // windows into response breaches under the no-admission baseline
    // (admitted work queues instead of deferring, so 8× service blows past
    // the M·L bound; deterministic admission would absorb the spike as
    // delay and hide it). Run here so its outcomes feed the same window
    // oracle; the monitor assertions come after the registry checks.
    core::PipelineConfig slo_cfg;
    slo_cfg.admission = core::AdmissionMode::kNone;
    const auto slo_bound =
        static_cast<std::int64_t>(slo_cfg.access_budget) * slo_cfg.service_time;
    slo_cfg.slos.push_back({.tenant = {},
                            .kind = obs::SloKind::kP99Response,
                            .threshold_ns = slo_bound,
                            .budget = 1e-6,
                            .short_windows = 1,
                            .long_windows = 1,
                            .warn_burn = 0.5,
                            .page_burn = 1.0});
    for (DeviceId d = 0; d < scheme.devices(); ++d) {
      slo_cfg.faults.spikes.push_back({.device = d,
                                       .start = from_ms(2.0),
                                       .end = from_ms(6.0),
                                       .factor = 8.0});
    }
    const auto slo_result = run(slo_cfg, synthetic);

    const auto snap = reg.snapshot();

    // Pipeline counters against the outcome tallies.
    check_eq(report, "pipeline.requests == replayed requests",
             cval(snap, "pipeline.requests"), want.requests);
    check_eq(report, "pipeline.reads_served == read outcomes",
             cval(snap, "pipeline.reads_served"), want.reads);
    check_eq(report, "pipeline.writes == write outcomes",
             cval(snap, "pipeline.writes"), want.writes);
    check_eq(report, "pipeline.failed == failed outcomes",
             cval(snap, "pipeline.failed"), want.failed);
    check_eq(report, "pipeline.deferred == deferred outcomes",
             cval(snap, "pipeline.deferred"), want.deferred);
    check_eq(report, "pipeline.deadline_violations == result field",
             cval(snap, "pipeline.deadline_violations"), want.violations);
    check_eq(report, "pipeline.dispatches == reads served",
             cval(snap, "pipeline.dispatches"), want.reads);

    // Latency histograms fold exactly the served-read population.
    const auto* resp = snap.find_histogram("pipeline.response_ns");
    report.add("pipeline.response_ns present", resp != nullptr);
    if (resp != nullptr) {
      check_eq(report, "pipeline.response_ns count == reads served",
               resp->count, want.reads);
      check_eq(report, "pipeline.response_ns sum == sum of responses",
               static_cast<std::uint64_t>(resp->sum),
               static_cast<std::uint64_t>(want.response_sum));
    }
    const auto* delay = snap.find_histogram("pipeline.delay_ns");
    check_eq(report, "pipeline.delay_ns count == deferred reads",
             delay != nullptr ? delay->count : 0, want.deferred);
    const auto* e2e = snap.find_histogram("pipeline.e2e_ns");
    check_eq(report, "pipeline.e2e_ns count == reads served",
             e2e != nullptr ? e2e->count : 0, want.reads);

    // Latency attribution: each served read's life cut at its outcome's
    // dispatch and start, one stage histogram per segment.
    for (const auto& [stage, sum] :
         {std::pair{"queue", want.queue_sum}, std::pair{"schedule", want.schedule_sum},
          std::pair{"service", want.service_sum}}) {
      const std::string name = std::string("pipeline.stage_ns{stage=") + stage + "}";
      const auto* h = snap.find_histogram("pipeline.stage_ns",
                                          std::string("stage=\"") + stage + "\"");
      check_eq(report, name + " count == reads served", h != nullptr ? h->count : 0,
               want.reads, true);
      check_eq(report, name + " sum == sum over served reads",
               h != nullptr ? static_cast<std::uint64_t>(h->sum) : 0,
               static_cast<std::uint64_t>(sum), true);
    }

    // WFQ tallies, published once per replay: only the tenant leg has
    // tenants, so each counter equals that replay's per-tenant usage.
    for (const auto& [family, field] :
         {std::pair{"wfq.arrivals", &core::TenantUsage::arrivals},
          std::pair{"wfq.admitted", &core::TenantUsage::admitted},
          std::pair{"wfq.shed", &core::TenantUsage::shed},
          std::pair{"wfq.marked", &core::TenantUsage::marked}}) {
      std::uint64_t got = 0;
      std::uint64_t expected = 0;
      bool each = true;
      for (std::size_t k = 0; k < tenant_wfq.tenants.size(); ++k) {
        const auto v =
            cval(snap, family, "tenant=\"" + tenant_wfq.tenants[k].name + "\"");
        const auto u = tenant_result.tenant_usage[k].*field;
        each = each && v == u;
        got += v;
        expected += u;
      }
      const bool ok = each && expected > 0;
      report.add(std::string(family) + "{tenant} == PipelineResult::tenant_usage (> 0)",
                 ok,
                 ok ? std::string{}
                    : std::to_string(got) + " over tenants != expected " +
                          std::to_string(expected));
    }

    // Fault accounting: the injected counts are the compiled plans' sizes
    // (the rebuild's pending-read gauge is audited on its own leg below).
    check_eq(report, "fault.injected.outages == compiled plan outages",
             cval(snap, "fault.injected.outages"), want_outages, true);
    check_eq(report, "fault.injected.spikes == compiled plan spikes",
             cval(snap, "fault.injected.spikes"), want_spikes, true);

    // Path accounting: every request took exactly one path, none was left
    // unclassified, and the configs above exercised each serving path.
    std::uint64_t path_total = 0;
    for (std::size_t i = 0; i < kPathCount; ++i) {
      const auto path = static_cast<core::RetrievalPath>(i);
      const std::string labels =
          std::string("path=\"") + core::to_string(path) + "\"";
      const auto got = cval(snap, "pipeline.path", labels);
      path_total += got;
      check_eq(report, "pipeline.path{" + labels + "} == outcome count", got,
               want.by_path[i]);
    }
    check_eq(report, "pipeline.path family covers every request", path_total,
             want.requests);
    check_eq(report, "no request left path=unset",
             want.by_path[static_cast<std::size_t>(core::RetrievalPath::kUnset)],
             0);
    for (const auto path :
         {core::RetrievalPath::kPrimary, core::RetrievalPath::kSlotMatched,
          core::RetrievalPath::kSurplus, core::RetrievalPath::kDegraded,
          core::RetrievalPath::kWrite, core::RetrievalPath::kShed}) {
      const auto i = static_cast<std::size_t>(path);
      report.add(std::string("path exercised: ") + core::to_string(path),
                 want.by_path[i] > 0);
    }
    report.add("path exercised: aligned (dtr or max-flow)",
               want.by_path[static_cast<std::size_t>(
                   core::RetrievalPath::kAlignedDtr)] +
                       want.by_path[static_cast<std::size_t>(
                           core::RetrievalPath::kAlignedMaxFlow)] >
                   0);

    // Device accounting: the engine's device ops are its read dispatches,
    // write replica ops and rebuild reads; their busy time is the reads'
    // service plus one page program per write replica op.
    const auto submits = cval(snap, "flashsim.submits");
    const auto write_ops = cval(snap, "pipeline.write_replica_ops");
    check_eq(report, "sum(flashsim.device.requests) == flashsim.submits",
             snap.counter_family_total("flashsim.device.requests"), submits, true);
    check_eq(report, "flashsim.submits == dispatches + write replica ops + rebuild reads",
             submits,
             cval(snap, "pipeline.dispatches") + write_ops +
                 cval(snap, "fault.rebuild.reads"),
             true);
    check_eq(report, "sum(flashsim.device.busy_ns) == read service + write ops * write_latency",
             snap.counter_family_total("flashsim.device.busy_ns"),
             static_cast<std::uint64_t>(want.service_sum +
                                        online_writes.write_latency *
                                            static_cast<SimTime>(write_ops)),
             true);

    // Retrieval identity: every retrieve() call either took the DTR fast
    // path or fell back to max-flow; degraded retrievals are counted apart
    // and must have been exercised by the failure config.
    check_eq(report, "retrieval fast path + max-flow fallback == invocations",
             cval(snap, "retrieval.fast_path") +
                 cval(snap, "retrieval.max_flow_fallback"),
             cval(snap, "retrieval.invocations"));
    report.add("retrieval.degraded exercised",
               cval(snap, "retrieval.degraded") > 0);

    // Statistical admission: one Q sample per over-limit interval.
    const auto* q_hist = snap.find_histogram("admission.q_ppm");
    check_eq(report, "admission.q_ppm count == over-limit intervals",
             q_hist != nullptr ? q_hist->count : 0,
             cval(snap, "admission.over_limit_intervals"));

    check_histogram_consistency(report, snap);

    // Latency histograms in full: the replays' tallies, merged at replay
    // end, must leave each histogram exactly as one record() per served
    // read would — in either tracker regime.
    {
      bool saw_exact = false;
      std::string bucketed;
      for (std::size_t i = 0; i < LatencyOracle::kCount; ++i) {
        const auto [name, labels] = LatencyOracle::kNames[i];
        const std::string id =
            labels[0] == '\0' ? name : std::string(name) + "{" + labels + "}";
        const auto* h = snap.find_histogram(name, labels);
        const auto want_snap = latency_oracle.ref[i].snapshot();
        const std::string diff = h == nullptr ? std::string("missing")
                                              : histogram_mismatch(*h, want_snap);
        report.add(id + ": snapshot == one record() per served read", diff.empty(), diff);
        saw_exact = saw_exact || want_snap.exact;
        if (!want_snap.exact) bucketed += (bucketed.empty() ? "bucketed: " : ", ") + id;
      }
      report.add("latency histograms: exact and bucketed regimes both exercised",
                 saw_exact && !bucketed.empty(), bucketed);
    }

    // Window-identity oracle: every exported point of every windowed series
    // must rederive exactly — {sum, count, min, max, first_time}, both
    // directions — from the outcomes the replays returned, after applying
    // the documented ring-retention rule.
    {
      const auto tsnap = tsr.snapshot();
      std::string diff;
      const auto diverged = window_divergences(win_oracle, tsnap, &diff);
      std::size_t points = 0;
      for (const auto& s : tsnap.series) points += s.points.size();
      report.add("windows: every exported point rederives from outcomes (" +
                     std::to_string(tsnap.series.size()) + " series, " +
                     std::to_string(points) + " points)",
                 diverged == 0, diff);
      // Mutation check: the seeded mis-fold knob (sum off by one per point)
      // must be caught, or the oracle above proves nothing.
      tsr.set_misfold_for_test(true);
      const auto bad = tsr.snapshot();
      tsr.set_misfold_for_test(false);
      report.add("windows: seeded mis-fold defect detected",
                 window_divergences(win_oracle, bad, nullptr) > 0);
    }

    // SLO oracle: with short = long = 1 the burn machinery degenerates to
    // exact per-window classification, so the monitor must have paged in
    // every window where some read's response exceeded the bound — and
    // only there.
    {
      std::set<std::int64_t> expect_pages;
      std::set<std::int64_t> read_windows;
      for (const auto& o : slo_result.outcomes) {
        if (o.failed || o.is_write) continue;
        const auto w = o.dispatch / slo_cfg.qos_interval;
        read_windows.insert(w);
        if (o.response() > slo_bound) expect_pages.insert(w);
      }
      const auto slo_snap = obs::SloMonitor::global().snapshot();
      std::set<std::int64_t> got_pages;
      std::uint64_t non_page_log = 0;
      for (const auto& v : slo_snap.log) {
        if (v.state == obs::SloMonitor::State::kPage) {
          got_pages.insert(v.window);
        } else {
          ++non_page_log;
        }
      }
      report.add("slo: spike plan breached the p99 bound in a strict subset "
                 "of windows",
                 !expect_pages.empty() &&
                     expect_pages.size() < read_windows.size(),
                 std::to_string(expect_pages.size()) + " of " +
                     std::to_string(read_windows.size()) + " windows breach");
      std::string diff;
      if (got_pages != expect_pages) {
        diff = std::to_string(got_pages.size()) + " paged windows != " +
               std::to_string(expect_pages.size()) + " breaching windows";
      }
      report.add("slo: monitor paged in every breaching window and only there",
                 got_pages == expect_pages, diff);
      check_eq(report, "slo: violation log holds pages only (1-window burn)",
               non_page_log, 0);
      check_eq(report, "slo: violation log not truncated", slo_snap.log_dropped,
               0);
      check_eq(report, "slo: spec status page count == breaching windows",
               slo_snap.specs.size() == 1 ? slo_snap.specs[0].pages : 0,
               expect_pages.size());
      obs::SloMonitor::global().configure({});  // leave no stale specs behind
    }

    // The hot-spare rebuild's pending-read gauge, on the failure leg with a
    // paced rebuild of its permanently failed device: seeded with the
    // plan's rebuild reads when the replay starts, it reads > 0 while
    // outcomes fold and returns to 0 once the replay ends. Run after the
    // checks above, whose identities do not count rebuild device time.
    {
      core::PipelineConfig rebuilding = aligned_failures;
      rebuilding.faults.rebuild.pages_per_second = 2000.0;
      GaugePeak pending(reg.gauge("fault.rebuild.pending_reads"));
      (void)core::QosPipeline(scheme, rebuilding).run(exchange, &pending);
      if (gval(reg.snapshot(), "fault.rebuild.pending_reads") != 0) ++left_pending;
      check_eq(report, "fault.rebuild.pending_reads == 0 after every replay",
               left_pending, 0);
      report.add("fault.rebuild.pending_reads > 0 mid-replay (rebuild leg)",
                 pending.peak > 0, "peak " + std::to_string(pending.peak));
    }

    // Trace-ring audit on a fresh small run: one arrival/admission/retrieval
    // span triple per request, three stage slices per served read, one
    // service slice per device op, nothing dropped.
    reg.reset();
    tracer.clear();
    tracer.set_enabled(true);
    const auto traced = core::QosPipeline(scheme, online_det).run(synthetic);
    tracer.set_enabled(false);
    const auto events = tracer.events();
    const auto traced_snap = reg.snapshot();
    std::array<std::uint64_t, 6> by_kind{};
    std::uint64_t malformed = 0;
    for (const auto& e : events) {
      ++by_kind[static_cast<std::size_t>(e.kind)];
      if (e.end < e.start) ++malformed;
    }
    const auto traced_requests = static_cast<std::uint64_t>(traced.outcomes.size());
    std::uint64_t traced_reads = 0;
    for (const auto& o : traced.outcomes) {
      if (!o.failed && !o.is_write) ++traced_reads;
    }
    check_eq(report, "trace: one arrival event per request",
             by_kind[static_cast<std::size_t>(obs::EventKind::kArrival)],
             traced_requests);
    check_eq(report, "trace: one admission verdict per request",
             by_kind[static_cast<std::size_t>(obs::EventKind::kAdmission)],
             traced_requests);
    check_eq(report, "trace: one retrieval span per request",
             by_kind[static_cast<std::size_t>(obs::EventKind::kRetrieval)],
             traced_requests);
    check_eq(report, "trace: one service slice per device op",
             by_kind[static_cast<std::size_t>(obs::EventKind::kDeviceService)],
             cval(traced_snap, "flashsim.submits"), true);
    check_eq(report, "trace: three stage slices per served read",
             by_kind[static_cast<std::size_t>(obs::EventKind::kStage)],
             3 * traced_reads);
    check_eq(report, "trace: no events dropped", tracer.dropped(), 0);
    check_eq(report, "trace: spans well-formed (end >= start)", malformed, 0);
    tracer.clear();
    tracer.set_enabled(tracer_was_enabled);

    // P_k memo audit. The memo is process-global (it survives registry
    // resets), so the cross-check is delta-based on a key no prior call can
    // have touched: a process-unique seed guarantees the first call misses
    // and the second hits, and the cached table must be bit-identical to
    // both the first call's and an uncached recomputation.
    {
      static std::atomic<std::uint64_t> audit_seed{0x9E3779B97F4A7C15ULL};
      const auto seed = audit_seed.fetch_add(1, std::memory_order_relaxed);
      const core::SamplerParams pk_params{.samples_per_size = 64, .seed = seed};
      const auto before = reg.snapshot();
      const auto first = core::sample_optimal_probabilities(scheme, 8, pk_params);
      const auto second = core::sample_optimal_probabilities(scheme, 8, pk_params);
      core::SamplerParams uncached = pk_params;
      uncached.cache = false;
      const auto recomputed = core::sample_optimal_probabilities(scheme, 8, uncached);
      const auto after = reg.snapshot();
      check_eq(report, "pk_cache: fresh key misses exactly once",
               cval(after, "retrieval.pk_cache.miss") -
                   cval(before, "retrieval.pk_cache.miss"),
               1);
      check_eq(report, "pk_cache: repeated key hits exactly once",
               cval(after, "retrieval.pk_cache.hit") -
                   cval(before, "retrieval.pk_cache.hit"),
               1);
      report.add("pk_cache: cached table bit-identical to recomputation",
                 first == second && first == recomputed);
    }

    // Flow-workspace reuse audit. optimal_schedule over a workspace builds
    // the network once and re-solves in place per extra round, so across
    // the controlled calls below: builds == calls, reuses == sum over calls
    // of (result rounds − lower bound ⌈b/N⌉) — each counted from the
    // returned schedules, not from the implementation.
    {
      retrieval::FlowWorkspace ws;
      retrieval::Schedule out;
      Rng rng(params.seed);
      std::uint64_t expect_builds = 0;
      std::uint64_t expect_reuses = 0;
      bool all_solvable = true;
      const auto before = reg.snapshot();
      for (std::size_t trial = 0; trial < 16; ++trial) {
        const std::size_t k = 1 + rng.below(2 * scheme.devices());
        std::vector<BucketId> batch(k);
        for (auto& b : batch) b = static_cast<BucketId>(rng.below(scheme.buckets()));
        if (!retrieval::optimal_schedule(batch, scheme, {}, ws, out)) {
          all_solvable = false;
          break;
        }
        ++expect_builds;
        expect_reuses += out.rounds - static_cast<std::uint32_t>(
                                          design::optimal_accesses(k, scheme.devices()));
      }
      const auto after = reg.snapshot();
      report.add("flow_ws: all-up optimal_schedule solvable", all_solvable);
      check_eq(report, "flow_ws: builds == one network per solve",
               cval(after, "retrieval.flow_ws.builds") -
                   cval(before, "retrieval.flow_ws.builds"),
               expect_builds);
      check_eq(report, "flow_ws: reuses == extra feasibility rounds",
               cval(after, "retrieval.flow_ws.reuses") -
                   cval(before, "retrieval.flow_ws.reuses"),
               expect_reuses);
    }

    return report;
  }
}

}  // namespace flashqos::verify
