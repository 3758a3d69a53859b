#include "verify/overload_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/qos_pipeline.hpp"
#include "core/sampler.hpp"
#include "design/block_design.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "service/pipeline_service.hpp"
#include "trace/cursor.hpp"
#include "util/rng.hpp"

namespace flashqos::verify {
namespace {

/// One sustained stream shape: `ratio`·S reads per ON interval, placed on
/// the interval boundary or spread inside it; with `idle`, every 32 ON
/// intervals are followed by just enough idle ones to drain the backlog.
struct Shape {
  double ratio = 1.0;
  bool mid = false;
  bool idle = false;

  [[nodiscard]] std::string label() const {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.1fxS %s%s", ratio,
                  mid ? "mid-interval" : "boundary", idle ? " +idle" : "");
    return buf;
  }
};

trace::Trace make_stream(const Shape& shape, std::uint64_t budget,
                         std::size_t on_intervals, std::uint32_t buckets,
                         std::uint64_t seed) {
  constexpr std::size_t kCycleOn = 32;
  const auto cycle_off = shape.idle
                             ? static_cast<std::size_t>(std::ceil(
                                   static_cast<double>(kCycleOn) * (shape.ratio - 1.0)))
                             : 0;
  trace::Trace t;
  t.name = "overload";
  t.volumes = 1;
  t.report_interval = 64 * kBaseInterval;
  Rng rng(seed);
  std::size_t k = 0;  // interval index
  double owed = 0.0;
  for (std::size_t on = 0; on < on_intervals; ++on, ++k) {
    if (on > 0 && on % kCycleOn == 0) k += cycle_off;
    owed += shape.ratio * static_cast<double>(budget);
    const auto n = static_cast<std::size_t>(owed);
    owed -= static_cast<double>(n);
    for (std::size_t j = 0; j < n; ++j) {
      trace::TraceEvent e;
      e.time = static_cast<SimTime>(k) * kBaseInterval;
      if (shape.mid) {
        e.time += static_cast<SimTime>(j + 1) * kBaseInterval /
                  static_cast<SimTime>(n + 1);
      }
      e.block = rng.below(buckets);
      e.is_read = rng.below(50) != 0;  // a few writes ride along
      e.tenant = static_cast<std::uint32_t>(e.block % 3);
      t.events.push_back(e);
    }
  }
  return t;
}

/// Final-state tally of one replay's outcomes.
struct Tally {
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;

  void add(const core::RequestOutcome& o) {
    if (o.path == core::RetrievalPath::kShed) {
      ++shed;
    } else if (o.failed) {
      ++failed;
    } else if (o.path != core::RetrievalPath::kUnset && o.finish >= o.start &&
               o.start >= o.dispatch && o.dispatch >= o.arrival) {
      ++served;
    }
  }
  [[nodiscard]] std::uint64_t total() const { return served + shed + failed; }
};

bool outcome_eq(const core::RequestOutcome& a, const core::RequestOutcome& b) {
  return a.arrival == b.arrival && a.dispatch == b.dispatch && a.start == b.start &&
         a.finish == b.finish && a.device == b.device &&
         a.fim_matched == b.fim_matched && a.failed == b.failed &&
         a.is_write == b.is_write && a.path == b.path && a.q_ppm == b.q_ppm &&
         a.tenant == b.tenant && a.wfq_marked == b.wfq_marked;
}

std::uint64_t counter(const char* name) {
  const auto snap = obs::MetricRegistry::global().snapshot();
  const auto* c = snap.find_counter(name);
  return c != nullptr ? c->value : 0;
}

class CollectSink final : public core::OutcomeSink {
 public:
  explicit CollectSink(std::size_t n) : outcomes(n) {}
  void on_outcome(std::uint64_t seq, const trace::TraceEvent& /*ev*/,
                  const core::RequestOutcome& out) override {
    outcomes[seq] = out;
  }
  std::vector<core::RequestOutcome> outcomes;
};

class TallySink final : public service::ServedSink {
 public:
  void on_served(const service::Served& s) override { tally.add(s.out); }
  Tally tally;
};

struct Mode {
  std::string name;
  core::PipelineConfig cfg;
  bool live = false;  // also driven through PipelineService's live session
};

}  // namespace

Report verify_overload(const decluster::AllocationScheme& scheme,
                       const OverloadCheckParams& params) {
  Report report("overload N=" + std::to_string(scheme.devices()));
  if constexpr (!obs::kEnabled) {
    report.add("skipped: admission work is counted through obs (FLASHQOS_OBS=OFF)",
               true);
    return report;
  }
  auto& reg = obs::MetricRegistry::global();
  auto& tracer = obs::Tracer::global();
  const bool tracer_was_enabled = tracer.enabled();
  tracer.set_enabled(false);

  const std::uint64_t budget =
      design::guarantee_buckets(scheme.copies(), /*accesses=*/1);
  const auto p_table = core::sample_optimal_probabilities(
      scheme, static_cast<std::uint32_t>(2 * budget + 2),
      {.samples_per_size = params.p_samples, .seed = params.seed});

  std::vector<Mode> modes;
  const auto add_mode = [&](std::string name, core::RetrievalMode retrieval,
                            core::AdmissionMode admission, bool live) {
    core::PipelineConfig cfg;
    cfg.retrieval = retrieval;
    cfg.admission = admission;
    cfg.mapping = core::MappingMode::kModulo;
    if (admission == core::AdmissionMode::kStatistical) {
      cfg.p_table = p_table;
      cfg.epsilon = 0.2;
    }
    modes.push_back({std::move(name), std::move(cfg), live});
    return &modes.back().cfg;
  };
  using core::AdmissionMode;
  using core::RetrievalMode;
  add_mode("online/none", RetrievalMode::kOnline, AdmissionMode::kNone, false);
  add_mode("online/det", RetrievalMode::kOnline, AdmissionMode::kDeterministic, true);
  add_mode("online/det/fim", RetrievalMode::kOnline, AdmissionMode::kDeterministic,
           false)
      ->mapping = core::MappingMode::kFim;
  add_mode("online/stat", RetrievalMode::kOnline, AdmissionMode::kStatistical, true);
  add_mode("aligned/none", RetrievalMode::kIntervalAligned, AdmissionMode::kNone,
           false);
  add_mode("aligned/det", RetrievalMode::kIntervalAligned,
           AdmissionMode::kDeterministic, true);
  add_mode("aligned/stat", RetrievalMode::kIntervalAligned,
           AdmissionMode::kStatistical, false);
  add_mode("primary/det", RetrievalMode::kOnline, AdmissionMode::kDeterministic,
           false)
      ->scheduler = core::SchedulerMode::kPrimaryOnly;
  add_mode("primary/stat", RetrievalMode::kOnline, AdmissionMode::kStatistical,
           false)
      ->scheduler = core::SchedulerMode::kPrimaryOnly;
  const std::vector<core::TenantSpec> tenants = {
      {.name = "gold", .weight = 2.0, .reservation = 2, .queue_capacity = 96,
       .mark_threshold = 64},
      {.name = "silver", .weight = 1.0, .reservation = 0, .queue_capacity = 96,
       .mark_threshold = 64},
      {.name = "flood", .weight = 1.0, .reservation = 0, .queue_capacity = 48,
       .mark_threshold = 32},
  };
  add_mode("tenant/online/det", RetrievalMode::kOnline, AdmissionMode::kDeterministic,
           true)
      ->tenants = tenants;
  add_mode("tenant/aligned/det", RetrievalMode::kIntervalAligned,
           AdmissionMode::kDeterministic, false)
      ->tenants = tenants;

  const auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return std::string(buf);
  };
  const auto per_request = [](std::uint64_t offers, std::size_t requests) {
    return requests == 0 ? 0.0
                         : static_cast<double>(offers) / static_cast<double>(requests);
  };
  const auto online_det = [](const core::PipelineConfig& cfg) {
    return cfg.retrieval == RetrievalMode::kOnline &&
           cfg.admission == AdmissionMode::kDeterministic &&
           cfg.scheduler == core::SchedulerMode::kReplicaScheduled;
  };

  std::vector<Shape> shapes;
  for (const double ratio : {1.2, 2.0, 4.0}) {
    for (const bool mid : {false, true}) {
      for (const bool idle : {false, true}) shapes.push_back({ratio, mid, idle});
    }
  }

  for (const auto& mode : modes) {
    for (const auto& shape : shapes) {
      for (const std::size_t scale : {std::size_t{1}, std::size_t{2}}) {
        const auto t = make_stream(shape, budget, scale * params.intervals,
                                   static_cast<std::uint32_t>(scheme.buckets()),
                                   params.seed);
        const std::string leg = mode.name + " " + shape.label() +
                                (scale == 1 ? " N" : " 2N");
        reg.reset();
        const auto r = core::QosPipeline(scheme, mode.cfg).run(t);
        const double offers = per_request(counter("pipeline.admission_offers"),
                                          t.events.size());
        Tally tally;
        for (const auto& o : r.outcomes) tally.add(o);
        bool ok = offers <= params.max_offers_per_request &&
                  tally.total() == t.events.size();
        if (online_det(mode.cfg)) ok = ok && r.deadline_violations == 0;
        report.add(leg, ok,
                   "offers/request " + fmt(offers) + ", served+shed+failed " +
                       std::to_string(tally.total()) + " of " +
                       std::to_string(t.events.size()) + ", deadline misses " +
                       std::to_string(r.deadline_violations));

        // The same stream through the live session: producer-submitted in
        // order, flushed, drained.
        if (!mode.live || !shape.mid || shape.idle || shape.ratio != 2.0) continue;
        reg.reset();
        service::ServiceOptions so;
        so.pipeline = mode.cfg;
        so.meta = {t.name, t.volumes, t.report_interval};
        so.batch_size = 256;
        service::PipelineService svc(scheme, so);
        TallySink sink;
        bool wire_ok = svc.start(sink);
        constexpr std::size_t kBatch = 500;
        std::vector<std::uint64_t> tags(kBatch);
        for (std::size_t i = 0; wire_ok && i < t.events.size(); i += kBatch) {
          const std::size_t n = std::min(kBatch, t.events.size() - i);
          for (std::size_t j = 0; j < n; ++j) tags[j] = i + j;
          wire_ok = svc.submit(0, std::span(t.events).subspan(i, n),
                               std::span(tags).first(n));
          svc.flush(t.events[i + n - 1].time);
        }
        const auto live = svc.drain();
        const double live_offers = per_request(
            counter("pipeline.admission_offers"), t.events.size());
        bool live_ok = wire_ok && svc.clamped_events() == 0 &&
                       live.requests == t.events.size() &&
                       sink.tally.total() == t.events.size() &&
                       live_offers <= params.max_offers_per_request;
        if (online_det(mode.cfg)) live_ok = live_ok && live.deadline_violations == 0;
        report.add("live " + leg, live_ok,
                   "offers/request " + fmt(live_offers) + ", verdicts " +
                       std::to_string(sink.tally.total()) + " of " +
                       std::to_string(t.events.size()) + ", clamped " +
                       std::to_string(svc.clamped_events()));
      }
    }
  }

  // Mutation: rescan_for_test re-offers every carried read at every
  // boundary. It must reproduce the unmutated stream outcome for outcome
  // (and deferral event for event), and it must trip the offers bound —
  // otherwise the bound could not tell a linear engine from a quadratic
  // one.
  const Shape mutation_shape{.ratio = 2.0, .mid = true, .idle = true};
  const auto t = make_stream(mutation_shape, budget, params.intervals,
                             static_cast<std::uint32_t>(scheme.buckets()),
                             params.seed);
  for (const auto& mode : modes) {
    if (!mode.cfg.tenants.empty() || mode.cfg.admission == AdmissionMode::kNone) {
      continue;  // kNone never defers; tenant backlogs live in WFQ queues
    }
    const auto replay = [&](bool rescan) {
      reg.reset();
      CollectSink sink(t.events.size());
      trace::VectorCursor cursor(t);
      (void)core::QosPipeline(scheme, mode.cfg)
          .run_stream(cursor, nullptr, {.rescan_for_test = rescan, .sink = &sink});
      return std::tuple{std::move(sink.outcomes), counter("pipeline.deferral_events"),
                        counter("pipeline.admission_offers")};
    };
    const auto [want, want_deferrals, want_offers] = replay(false);
    const auto [got, got_deferrals, got_offers] = replay(true);
    std::size_t diverged = 0;
    for (std::size_t i = 0; i < t.events.size(); ++i) {
      if (!outcome_eq(want[i], got[i])) ++diverged;
    }
    report.add("rescan_for_test " + mode.name + ": identical outcomes",
               diverged == 0 && got_deferrals == want_deferrals,
               std::to_string(diverged) + " outcomes diverged, deferral events " +
                   std::to_string(got_deferrals) + " vs " +
                   std::to_string(want_deferrals));
    // Only a mode that carries a backlog has anything to re-offer (the
    // statistical controller may admit most of this stream as surplus):
    // with a deferral event per request or more, the mutation must trip.
    const double offers = per_request(got_offers, t.events.size());
    report.add("rescan_for_test " + mode.name + ": offers bound trips",
               want_deferrals < t.events.size() ||
                   offers > params.max_offers_per_request,
               "offers/request " + fmt(offers) + " (unmutated " +
                   fmt(per_request(want_offers, t.events.size())) + "), deferral events " +
                   std::to_string(want_deferrals));
  }

  reg.reset();
  tracer.set_enabled(tracer_was_enabled);
  return report;
}

}  // namespace flashqos::verify
