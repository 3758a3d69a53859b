#include "verify/fairness_oracle.hpp"

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "core/qos_pipeline.hpp"
#include "design/block_design.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace flashqos::verify {
namespace {

/// One randomized tenant mix: pipeline specs plus the synthetic loads that
/// drive them. Tenant 0 is always a reserved victim (demand == its
/// reservation); the last tenant is always the flooder.
struct Mix {
  std::string name;
  std::vector<core::TenantSpec> tenants;
  std::vector<trace::TenantLoad> loads;
  std::vector<bool> reserved_victim;  // demand fits inside the reservation
};

Mix make_mix(std::uint64_t S, std::uint64_t seed, std::size_t r,
             std::size_t intervals) {
  Rng g(shard_seed(seed, 9000 + r));
  Mix mix;
  mix.name = "mix " + std::to_string(r);
  const std::size_t n = 2 + r % 3;  // 2..4 tenants

  // Reserved victim: its whole demand fits inside its floor, so the oracle
  // can demand zero deferrals from it no matter how hard the flood pushes.
  const auto res0 =
      1 + g.below(std::min<std::uint64_t>(2, S >= 3 ? S - 2 : 1));
  mix.tenants.push_back({.name = "gold",
                         .weight = 1.0 + static_cast<double>(g.below(3)),
                         .reservation = res0,
                         .queue_capacity = 32,
                         .mark_threshold = 24});
  mix.loads.push_back({.requests_per_interval = static_cast<std::uint32_t>(res0),
                       .bucket_pool = 8});
  mix.reserved_victim.push_back(true);

  // Unreserved victims: high weight, light demand — their WFQ share covers
  // them, so they must ride out the flood on fairness alone (no floor).
  for (std::size_t k = 0; k + 2 < n; ++k) {
    mix.tenants.push_back({.name = "silver" + std::to_string(k),
                           .weight = 4.0,
                           .reservation = 0,
                           .queue_capacity = 32,
                           .mark_threshold = 24});
    trace::TenantLoad load{.requests_per_interval = 1, .bucket_pool = 8};
    // Odd mixes park one victim halfway through — exercises backlog exit,
    // long-idle re-entry, and the renormalization that must follow.
    if (k == 0 && r % 2 == 1) load.active_intervals = intervals / 2;
    // Every third mix pulses a victim instead: a burst every few intervals
    // spills across boundaries and contends with the flooder for the
    // shared pool, so virtual-time ordering becomes outcome-visible.
    if (k == 0 && r % 3 == 2) {
      mix.tenants.back().weight = 2.0;
      load = {.requests_per_interval = 4, .bucket_pool = 8,
              .active_intervals = 0, .period = 3};
    }
    mix.loads.push_back(load);
    mix.reserved_victim.push_back(false);
  }

  // The flooder: small queue, no reservation, demand far past any share.
  mix.tenants.push_back({.name = "flood",
                         .weight = 1.0 + static_cast<double>(g.below(2)),
                         .reservation = 0,
                         .queue_capacity = 10,
                         .mark_threshold = 6});
  mix.loads.push_back(
      {.requests_per_interval = static_cast<std::uint32_t>(S + 2 + g.below(3)),
       .bucket_pool = 12});
  mix.reserved_victim.push_back(false);
  return mix;
}

/// Reference verdict for one trace event (trace order).
struct RefOutcome {
  bool shed = false;
  bool marked = false;
  std::int64_t interval = -1;  // QoS interval the request was dispensed in
};

struct RefTotals {
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t marked = 0;
  std::uint64_t max_depth = 0;
};

/// Boundary-exact re-simulation of the WFQ + reservation-floor semantics,
/// written against the *specification* (finish tags, renormalized virtual
/// time, floor-then-shared draws), deliberately not reusing core/wfq.cpp.
/// Requires every arrival to sit exactly on a QoS interval boundary (the
/// mixes are generated with jitter_slots = 0).
bool simulate_reference(const Mix& mix, const trace::Trace& t, std::uint64_t S,
                        std::vector<RefOutcome>* verdicts,
                        std::vector<RefTotals>* totals, std::string* why) {
  const SimTime T = kBaseInterval;
  const std::size_t n = mix.tenants.size();
  verdicts->assign(t.events.size(), RefOutcome{});
  totals->assign(n, RefTotals{});

  double vtime = 0.0;
  std::vector<double> last_finish(n, 0.0);
  struct Item {
    std::size_t idx;
    double finish;
  };
  std::vector<std::deque<Item>> fifo(n);
  std::vector<std::uint64_t> floor(n, 0), floor_used(n, 0);
  std::uint64_t shared_pool = 0, shared_used = 0;
  std::size_t queued = 0;

  std::size_t ev = 0;
  std::int64_t q = 0;
  std::size_t guard = 0;
  while (ev < t.events.size() || queued > 0) {
    if (++guard > 1000000) {
      *why = "reference simulator did not converge (backlog never drains)";
      return false;
    }
    const SimTime now = static_cast<SimTime>(q) * T;

    // Interval rollover: floors reset (healthy array, live budget == S).
    std::uint64_t reserved = 0;
    for (std::size_t k = 0; k < n; ++k) {
      floor[k] = mix.tenants[k].reservation;
      floor_used[k] = 0;
      reserved += floor[k];
    }
    shared_pool = S - reserved;  // mixes keep sum(res) <= S - 1
    shared_used = 0;

    // Arrivals at this boundary, in trace order (tenant 0 first).
    while (ev < t.events.size() && t.events[ev].time == now) {
      const auto k = static_cast<std::size_t>(t.events[ev].tenant);
      auto& out = (*verdicts)[ev];
      if (fifo[k].size() >= mix.tenants[k].queue_capacity) {
        out.shed = true;
        ++(*totals)[k].shed;
      } else {
        const double finish =
            std::max(vtime, last_finish[k]) + 1.0 / mix.tenants[k].weight;
        last_finish[k] = finish;
        fifo[k].push_back({ev, finish});
        ++queued;
        ++(*totals)[k].arrivals;
        if (fifo[k].size() >= mix.tenants[k].mark_threshold) {
          out.marked = true;
          ++(*totals)[k].marked;
        }
        (*totals)[k].max_depth =
            std::max<std::uint64_t>((*totals)[k].max_depth, fifo[k].size());
      }
      ++ev;
    }
    if (ev < t.events.size() && t.events[ev].time < now) {
      *why = "arrival off the interval grid at event " + std::to_string(ev);
      return false;
    }

    // Dispense: min finish tag among budget-eligible heads, floor drawn
    // before shared, virtual time advanced by 1/W_backlogged per pop with
    // the rate measured while the served queue still counts.
    while (true) {
      std::size_t best = n;
      for (std::size_t k = 0; k < n; ++k) {
        if (fifo[k].empty()) continue;
        if (floor_used[k] >= floor[k] && shared_used >= shared_pool) continue;
        if (best == n || fifo[k].front().finish < fifo[best].front().finish) {
          best = k;
        }
      }
      if (best == n) break;
      double rate = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        if (!fifo[k].empty()) rate += mix.tenants[k].weight;
      }
      if (floor_used[best] < floor[best]) {
        ++floor_used[best];
      } else {
        ++shared_used;
      }
      auto& out = (*verdicts)[fifo[best].front().idx];
      out.interval = q;
      fifo[best].pop_front();
      --queued;
      vtime += 1.0 / rate;
      ++(*totals)[best].admitted;
    }
    ++q;
  }
  return true;
}

/// Replay one mix through the pipeline (with the given knobs) and check
/// every fairness property against the honest reference.
Report check_mix(const decluster::AllocationScheme& scheme, const Mix& mix,
                 core::WfqKnobs knobs, const FairnessOracleParams& params) {
  Report report(mix.name);
  const SimTime T = kBaseInterval;
  const SimTime L = kPageReadLatency;
  const std::uint32_t M = 1;
  const auto S = design::guarantee_buckets(scheme.copies(), M);

  trace::MultiTenantParams mt;
  mt.interval = T;
  mt.intervals = params.intervals;
  mt.tenants = mix.loads;
  mt.seed = shard_seed(params.seed, 17);
  mt.jitter_slots = 0;  // boundary arrivals: the reference's contract
  const auto t = trace::generate_multi_tenant(mt);

  core::PipelineConfig cfg;
  cfg.retrieval = core::RetrievalMode::kOnline;
  cfg.admission = core::AdmissionMode::kDeterministic;
  cfg.mapping = core::MappingMode::kModulo;
  cfg.access_budget = M;
  cfg.tenants = mix.tenants;
  cfg.wfq_knobs = knobs;
  const auto result = core::QosPipeline(scheme, cfg).run(t);

  std::string why;
  std::vector<RefOutcome> ref;
  std::vector<RefTotals> ref_totals;
  bool agree = simulate_reference(mix, t, S, &ref, &ref_totals, &why);
  if (agree) {
    for (std::size_t i = 0; i < t.events.size() && agree; ++i) {
      const auto& o = result.outcomes[i];
      const bool shed = o.path == core::RetrievalPath::kShed;
      if (shed != ref[i].shed) {
        agree = false;
        why = "request " + std::to_string(i) + (shed ? " shed" : " served") +
              " but the reference says otherwise";
      } else if (!shed && o.wfq_marked != ref[i].marked) {
        agree = false;
        why = "request " + std::to_string(i) + " mark bit " +
              (o.wfq_marked ? "set" : "clear") + " vs reference";
      } else if (!shed && o.dispatch / T != ref[i].interval) {
        agree = false;
        why = "request " + std::to_string(i) + " dispensed in interval " +
              std::to_string(o.dispatch / T) + ", reference says " +
              std::to_string(ref[i].interval);
      }
    }
  }
  if (agree) {
    for (std::size_t k = 0; k < mix.tenants.size() && agree; ++k) {
      const auto& u = result.tenant_usage[k];
      const auto& r = ref_totals[k];
      if (u.arrivals != r.arrivals || u.admitted != r.admitted ||
          u.shed != r.shed || u.marked != r.marked ||
          u.max_depth != r.max_depth) {
        agree = false;
        why = "tenant " + mix.tenants[k].name + " usage (" +
              std::to_string(u.arrivals) + "/" + std::to_string(u.admitted) +
              "/" + std::to_string(u.shed) + "/" + std::to_string(u.marked) +
              "/" + std::to_string(u.max_depth) + ") vs reference (" +
              std::to_string(r.arrivals) + "/" + std::to_string(r.admitted) +
              "/" + std::to_string(r.shed) + "/" + std::to_string(r.marked) +
              "/" + std::to_string(r.max_depth) + ")";
      }
    }
  }
  report.add("reference-agreement", agree, agree ? "" : why);

  // (b) budget: served reads per QoS interval never exceed S. Accepted
  // arrivals and services are tallied per (interval, tenant) — the work-
  // conservation check below needs the per-tenant split.
  const std::size_t n = mix.tenants.size();
  std::size_t horizon = 1;
  for (const auto& o : result.outcomes) {
    horizon = std::max(horizon, static_cast<std::size_t>(
                                    std::max(o.arrival, o.dispatch) / T) + 1);
  }
  std::vector<std::uint64_t> accepted_in(horizon * n, 0);  // arrival slot
  std::vector<std::uint64_t> served_in(horizon * n, 0);    // dispatch slot
  for (const auto& o : result.outcomes) {
    if (o.path == core::RetrievalPath::kShed) continue;
    ++accepted_in[static_cast<std::size_t>(o.arrival / T) * n + o.tenant];
    ++served_in[static_cast<std::size_t>(o.dispatch / T) * n + o.tenant];
  }
  bool budget_ok = true;
  for (std::size_t q = 0; q < horizon && budget_ok; ++q) {
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < n; ++k) total += served_in[q * n + k];
    if (total > S) {
      budget_ok = false;
      why = "interval " + std::to_string(q) + " served " +
            std::to_string(total) + " > S = " + std::to_string(S);
    }
  }
  report.add("budget", budget_ok, budget_ok ? "" : why);

  // (c) response bound: every served read meets M*L.
  bool bound_ok = true;
  for (std::size_t i = 0; i < result.outcomes.size() && bound_ok; ++i) {
    const auto& o = result.outcomes[i];
    if (o.failed || o.is_write) continue;
    if (o.response() > static_cast<SimTime>(M) * L) {
      bound_ok = false;
      why = "request " + std::to_string(i) + " response " +
            std::to_string(o.response()) + " ns > M*L";
    }
  }
  report.add("response-bound", bound_ok, bound_ok ? "" : why);

  // (d) reservation isolation: demand inside the floor is never deferred
  // and never shed, no matter what the flooder does.
  bool iso_ok = true;
  for (std::size_t i = 0; i < result.outcomes.size() && iso_ok; ++i) {
    const auto& o = result.outcomes[i];
    if (!mix.reserved_victim[o.tenant]) continue;
    if (o.path == core::RetrievalPath::kShed) {
      iso_ok = false;
      why = "reserved tenant " + mix.tenants[o.tenant].name +
            " had request " + std::to_string(i) + " shed";
    } else if (o.dispatch != o.arrival) {
      iso_ok = false;
      why = "reserved tenant " + mix.tenants[o.tenant].name +
            " had request " + std::to_string(i) + " deferred by " +
            std::to_string(o.delay()) + " ns";
    }
  }
  report.add("reservation-isolation", iso_ok, iso_ok ? "" : why);

  // (e) work conservation modulo reservations. A floor is a capacity
  // carve-out: it can only serve its owner (otherwise a mid-interval
  // arrival could find its guarantee already spent), so the conserved
  // quantity per interval is
  //
  //   served(q) == sum_t min(b_t, res_t) + min(shared, sum_t (b_t - min(b_t, res_t)))
  //
  // with b_t the tenant's backlog-plus-arrivals and shared = S - sum(res).
  // Per tenant, at least min(b_t, res_t) must have been served — the floor
  // delivery guarantee.
  bool wc_ok = true;
  std::uint64_t reserved = 0;
  for (const auto& spec : mix.tenants) reserved += spec.reservation;
  const std::uint64_t shared = S - reserved;
  std::vector<std::uint64_t> carry(n, 0);
  for (std::size_t q = 0; q < horizon && wc_ok; ++q) {
    std::uint64_t expect = 0, overflow = 0, total = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const auto b = carry[k] + accepted_in[q * n + k];
      const auto floor_use =
          std::min<std::uint64_t>(b, mix.tenants[k].reservation);
      expect += floor_use;
      overflow += b - floor_use;
      const auto srv = served_in[q * n + k];
      total += srv;
      if (srv < floor_use) {
        wc_ok = false;
        why = "interval " + std::to_string(q) + " tenant " +
              mix.tenants[k].name + " served " + std::to_string(srv) +
              " < its deliverable floor " + std::to_string(floor_use);
      }
      if (srv > b) {
        wc_ok = false;
        why = "interval " + std::to_string(q) + " tenant " +
              mix.tenants[k].name + " served " + std::to_string(srv) +
              " > its backlog " + std::to_string(b);
      }
      carry[k] = b - std::min(b, srv);
    }
    expect += std::min<std::uint64_t>(shared, overflow);
    if (wc_ok && total != expect) {
      wc_ok = false;
      why = "interval " + std::to_string(q) + " served " +
            std::to_string(total) + ", work conservation expects " +
            std::to_string(expect);
    }
  }
  for (std::size_t k = 0; k < n && wc_ok; ++k) {
    if (carry[k] != 0) {
      wc_ok = false;
      why = "tenant " + mix.tenants[k].name + " backlog of " +
            std::to_string(carry[k]) + " never served";
    }
  }
  report.add("work-conservation", wc_ok, wc_ok ? "" : why);

  // (f) flood pressure: the flooder must actually have overflowed, or the
  // isolation checks above proved nothing.
  const auto& flood = result.tenant_usage.back();
  report.add("flood-pressure", flood.shed > 0,
             flood.shed > 0
                 ? std::to_string(flood.shed) + " shed at the front end"
                 : "flooder never overflowed its queue");

  // (g) usage accounting: tenant_usage must be derivable from outcomes.
  bool usage_ok = true;
  std::vector<std::uint64_t> served_t(mix.tenants.size(), 0),
      shed_t(mix.tenants.size(), 0);
  for (const auto& o : result.outcomes) {
    if (o.path == core::RetrievalPath::kShed) {
      ++shed_t[o.tenant];
    } else {
      ++served_t[o.tenant];
    }
  }
  for (std::size_t k = 0; k < mix.tenants.size() && usage_ok; ++k) {
    const auto& u = result.tenant_usage[k];
    if (u.admitted != served_t[k] || u.shed != shed_t[k] ||
        u.arrivals != served_t[k]) {
      usage_ok = false;
      why = "tenant " + mix.tenants[k].name + " usage disagrees with " +
            "outcomes: admitted " + std::to_string(u.admitted) + " vs " +
            std::to_string(served_t[k]) + ", shed " + std::to_string(u.shed) +
            " vs " + std::to_string(shed_t[k]);
    }
  }
  report.add("usage-accounting", usage_ok, usage_ok ? "" : why);
  return report;
}

}  // namespace

Report verify_fairness(const decluster::AllocationScheme& scheme,
                       const FairnessOracleParams& params) {
  Report report("fairness N=" + std::to_string(scheme.devices()));
  const auto S = design::guarantee_buckets(scheme.copies(), 1);

  for (std::size_t r = 0; r < params.mixes; ++r) {
    const auto mix = make_mix(S, params.seed, r, params.intervals);
    std::size_t pool = 0;
    for (const auto& l : mix.loads) pool += l.bucket_pool;
    FLASHQOS_EXPECT(pool <= scheme.buckets(),
                    "fairness mix needs disjoint tenant bucket pools");
    report.merge(check_mix(scheme, mix, {}, params));
  }

  // Mutation liveness: every deliberate defect must trip at least one
  // check, otherwise the oracle is decoration. The mix is hand-built for
  // maximum sensitivity: a pulsed mid-weight tenant whose bursts spill
  // into flooder contention (virtual-time order decides which interval
  // each spilled request lands in), plus a low-weight reserved victim
  // whose floor is the only thing keeping it whole.
  if (params.mutations) {
    Mix mix;
    mix.name = "mutation mix";
    mix.tenants = {
        {.name = "gold", .weight = 1.0, .reservation = 2,
         .queue_capacity = 32, .mark_threshold = 24},
        {.name = "pulse", .weight = 2.0, .reservation = 0,
         .queue_capacity = 32, .mark_threshold = 24},
        {.name = "flood", .weight = 1.0, .reservation = 0,
         .queue_capacity = 10, .mark_threshold = 6},
    };
    mix.loads = {
        {.requests_per_interval = 2, .bucket_pool = 8},
        {.requests_per_interval = 4, .bucket_pool = 8, .active_intervals = 0,
         .period = 3},
        {.requests_per_interval = static_cast<std::uint32_t>(S + 2),
         .bucket_pool = 12},
    };
    mix.reserved_victim = {true, false, false};
    const struct {
      const char* name;
      core::WfqKnobs knobs;
    } mutants[] = {
        {"fifo-order", {.fifo_order = true}},
        {"skip-renormalization", {.skip_renormalization = true}},
        {"ignore-reservations", {.ignore_reservations = true}},
        {"leak-budget", {.leak_budget = true}},
    };
    for (const auto& m : mutants) {
      const auto sub = check_mix(scheme, mix, m.knobs, params);
      std::string tripped;
      for (const auto& c : sub.checks()) {
        if (!c.passed) tripped += (tripped.empty() ? "" : ", ") + c.name;
      }
      report.add(std::string("mutation ") + m.name + " detected",
                 !sub.passed(),
                 !sub.passed() ? "tripped: " + tripped
                               : "mutant passed every check");
    }
  }
  return report;
}

}  // namespace flashqos::verify
