#include "verify/invariants.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_map>

#include "core/block_mapper.hpp"
#include "design/bucket_table.hpp"
#include "fim/apriori.hpp"
#include "retrieval/dtr.hpp"
#include "retrieval/maxflow.hpp"
#include "util/rng.hpp"
#include "verify/fim_oracle.hpp"

namespace flashqos::verify {
namespace {

std::string format(const char* fmt, auto... args) {
  std::ostringstream os;
  // Tiny positional formatter: each "{}" consumes the next argument.
  std::string_view f(fmt);
  auto emit = [&](const auto& a) {
    const auto pos = f.find("{}");
    os << f.substr(0, pos);
    os << a;
    f = pos == std::string_view::npos ? std::string_view{} : f.substr(pos + 2);
  };
  (emit(args), ...);
  os << f;
  return std::move(os).str();
}

/// Sorted device set of a bucket.
std::vector<DeviceId> device_set(const decluster::AllocationScheme& s, BucketId b) {
  const auto reps = s.replicas(b);
  std::vector<DeviceId> set(reps.begin(), reps.end());
  std::sort(set.begin(), set.end());
  return set;
}

std::size_t intersection_size(const std::vector<DeviceId>& a,
                              const std::vector<DeviceId>& b) {
  std::size_t n = 0, i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++n;
      ++i;
      ++j;
    }
  }
  return n;
}

}  // namespace

void Report::add(std::string name, bool passed, std::string detail) {
  checks_.push_back({std::move(name), passed, std::move(detail)});
}

void Report::merge(const Report& other) {
  for (const auto& c : other.checks_) {
    checks_.push_back({other.subject_ + ": " + c.name, c.passed, c.detail});
  }
}

bool Report::passed() const noexcept {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.passed; });
}

std::size_t Report::failures() const noexcept {
  return static_cast<std::size_t>(std::count_if(
      checks_.begin(), checks_.end(), [](const Check& c) { return !c.passed; }));
}

std::string Report::to_string(bool verbose) const {
  std::ostringstream os;
  if (passed()) {
    os << "PASS " << subject_ << " (" << checks_.size() << " checks)";
  } else {
    os << "FAIL " << subject_ << " (" << failures() << " of " << checks_.size()
       << " checks failed)";
  }
  for (const auto& c : checks_) {
    if (!c.passed || verbose) {
      os << "\n  [" << (c.passed ? "ok" : "FAIL") << "] " << c.name;
      if (!c.detail.empty()) os << " — " << c.detail;
    }
  }
  return std::move(os).str();
}

Report verify_design(const design::BlockDesign& d) {
  Report r("design " + (d.name().empty() ? "<unnamed>" : d.name()));
  const std::uint64_t n = d.points();
  const std::uint64_t c = d.block_size();

  // Block shape: uniform size, distinct points, all in range.
  bool shape_ok = !d.blocks().empty();
  std::string shape_why = d.blocks().empty() ? "design has no blocks" : "";
  for (std::size_t i = 0; i < d.block_count() && shape_ok; ++i) {
    const auto& blk = d.block(i);
    if (blk.size() != c) {
      shape_ok = false;
      shape_why = format("block {} has size {} (expected {})", i, blk.size(), c);
      break;
    }
    std::set<design::PointId> distinct(blk.begin(), blk.end());
    if (distinct.size() != blk.size()) {
      shape_ok = false;
      shape_why = format("block {} repeats a point", i);
      break;
    }
    if (*distinct.rbegin() >= n) {
      shape_ok = false;
      shape_why = format("block {} references point {} >= N={}", i,
                         *distinct.rbegin(), n);
      break;
    }
  }
  r.add("block shape", shape_ok, shape_why);
  if (!shape_ok) return r;  // downstream counting is meaningless

  // Pair co-occurrence: recount every unordered pair from scratch.
  std::map<std::pair<design::PointId, design::PointId>, std::uint32_t> pairs;
  for (const auto& blk : d.blocks()) {
    for (std::size_t i = 0; i < blk.size(); ++i) {
      for (std::size_t j = i + 1; j < blk.size(); ++j) {
        const auto lo = std::min(blk[i], blk[j]);
        const auto hi = std::max(blk[i], blk[j]);
        ++pairs[{lo, hi}];
      }
    }
  }
  std::uint32_t max_pair = 0;
  for (const auto& [pair, count] : pairs) max_pair = std::max(max_pair, count);
  r.add("pair co-occurrence <= 1 (linear space)", max_pair <= 1,
        format("max pair count {}", max_pair));

  const std::uint64_t all_pairs = n * (n - 1) / 2;
  const bool steiner = max_pair == 1 && pairs.size() == all_pairs;
  r.add("implementation agrees on linear-space",
        d.is_linear_space() == (max_pair <= 1),
        format("recomputed {}, is_linear_space() says {}", max_pair <= 1,
               d.is_linear_space()));
  r.add("implementation agrees on Steiner", d.is_steiner() == steiner,
        format("recomputed {}, is_steiner() says {}", steiner, d.is_steiner()));

  // Point loads (replication numbers), recomputed.
  std::vector<std::uint64_t> load(n, 0);
  for (const auto& blk : d.blocks()) {
    for (const auto p : blk) ++load[p];
  }
  const auto [lo_it, hi_it] = std::minmax_element(load.begin(), load.end());

  if (steiner) {
    // Steiner counting identities: r = (N-1)/(c-1), b = N(N-1)/(c(c-1)).
    const bool divisible = (n - 1) % (c - 1) == 0 && (n * (n - 1)) % (c * (c - 1)) == 0;
    r.add("Steiner divisibility conditions", divisible,
          format("N={}, c={}", n, c));
    if (divisible) {
      const std::uint64_t expect_r = (n - 1) / (c - 1);
      const std::uint64_t expect_b = n * (n - 1) / (c * (c - 1));
      r.add("uniform replication number r=(N-1)/(c-1)",
            *lo_it == expect_r && *hi_it == expect_r,
            format("load range [{}, {}], expected {}", *lo_it, *hi_it, expect_r));
      r.add("block count b=N(N-1)/(c(c-1))", d.block_count() == expect_b,
            format("{} blocks, expected {}", d.block_count(), expect_b));
    }
  } else {
    // A partial design need not be perfectly uniform; it must still touch
    // every point or the allocation leaves devices idle.
    r.add("every device carries load", *lo_it > 0,
          format("min load {}", *lo_it));
  }
  return r;
}

Report verify_bucket_table(const design::BlockDesign& d, bool use_rotations) {
  Report r(format("bucket-table {}{}", d.name().empty() ? "<unnamed>" : d.name(),
                  use_rotations ? " (rotated)" : ""));
  const design::BucketTable t(d, use_rotations);
  const std::uint32_t c = d.block_size();
  const std::uint32_t rotations = use_rotations ? c : 1;

  r.add("device count preserved", t.devices() == d.points(),
        format("table {} vs design {}", t.devices(), d.points()));
  r.add("copy count preserved", t.copies() == c,
        format("table {} vs design {}", t.copies(), c));
  r.add("bucket count = blocks * rotations",
        t.buckets() == d.block_count() * rotations,
        format("{} buckets, {} blocks * {}", t.buckets(), d.block_count(),
               rotations));
  if (t.buckets() != d.block_count() * rotations) return r;

  // Every bucket must hold exactly its source block's device set, and the
  // c rotations of one block must make every member primary exactly once.
  bool sets_ok = true;
  bool primaries_ok = true;
  std::string why_sets;
  std::string why_primaries;
  for (std::size_t blk = 0; blk < d.block_count(); ++blk) {
    std::vector<design::PointId> expect(d.block(blk));
    std::sort(expect.begin(), expect.end());
    std::set<DeviceId> primaries;
    for (std::uint32_t rot = 0; rot < rotations; ++rot) {
      const auto b = static_cast<BucketId>(blk * rotations + rot);
      const auto reps = t.replicas(b);
      std::vector<DeviceId> got(reps.begin(), reps.end());
      std::sort(got.begin(), got.end());
      if (!std::equal(got.begin(), got.end(), expect.begin(), expect.end())) {
        sets_ok = false;
        why_sets = format("bucket {} diverges from block {}", b, blk);
      }
      primaries.insert(t.primary(b));
    }
    if (use_rotations && primaries.size() != c) {
      primaries_ok = false;
      why_primaries = format("block {}: {} distinct primaries over {} rotations",
                             blk, primaries.size(), c);
    }
  }
  r.add("rotations preserve the device set", sets_ok, why_sets);
  if (use_rotations) {
    r.add("each member primary exactly once per block", primaries_ok,
          why_primaries);
  }

  // For a rotated Steiner table, loads are exactly uniform: every device is
  // primary for r buckets and stores c*r replicas.
  if (d.is_steiner() && use_rotations) {
    std::vector<std::uint64_t> primary_load(t.devices(), 0);
    std::vector<std::uint64_t> total_load(t.devices(), 0);
    for (BucketId b = 0; b < t.buckets(); ++b) {
      ++primary_load[t.primary(b)];
      for (const auto dev : t.replicas(b)) ++total_load[dev];
    }
    const std::uint64_t expect_r = (d.points() - 1) / (c - 1);
    const auto [p_lo, p_hi] =
        std::minmax_element(primary_load.begin(), primary_load.end());
    const auto [t_lo, t_hi] =
        std::minmax_element(total_load.begin(), total_load.end());
    r.add("uniform primary load r", *p_lo == expect_r && *p_hi == expect_r,
          format("range [{}, {}], expected {}", *p_lo, *p_hi, expect_r));
    r.add("uniform total load c*r",
          *t_lo == c * expect_r && *t_hi == c * expect_r,
          format("range [{}, {}], expected {}", *t_lo, *t_hi, c * expect_r));
  }
  return r;
}

Report verify_allocation(const decluster::AllocationScheme& s,
                         const AllocationExpectations& expect) {
  Report r(format("allocation {} (N={}, c={}, {} buckets)", s.name(),
                  s.devices(), s.copies(), s.buckets()));

  bool distinct_ok = true;
  bool range_ok = true;
  std::string why_distinct;
  std::string why_range;
  std::vector<std::uint64_t> primary_load(s.devices(), 0);
  std::vector<std::uint64_t> total_load(s.devices(), 0);
  std::unordered_map<std::uint64_t, std::uint32_t> pair_counts;
  for (BucketId b = 0; b < s.buckets(); ++b) {
    const auto reps = s.replicas(b);
    std::set<DeviceId> seen;
    for (const auto dev : reps) {
      if (dev >= s.devices()) {
        range_ok = false;
        why_range = format("bucket {} uses device {} >= N={}", b, dev,
                           s.devices());
        continue;
      }
      if (!seen.insert(dev).second) {
        distinct_ok = false;
        why_distinct = format("bucket {} repeats device {}", b, dev);
      }
      ++total_load[dev];
    }
    if (reps[0] < s.devices()) ++primary_load[reps[0]];
    for (std::size_t i = 0; i < reps.size(); ++i) {
      for (std::size_t j = i + 1; j < reps.size(); ++j) {
        if (reps[i] >= s.devices() || reps[j] >= s.devices()) continue;
        const std::uint64_t lo = std::min(reps[i], reps[j]);
        const std::uint64_t hi = std::max(reps[i], reps[j]);
        ++pair_counts[(lo << 32) | hi];
      }
    }
  }
  r.add("replica devices in range", range_ok, why_range);
  r.add("replica devices distinct per bucket", distinct_ok, why_distinct);

  // Cross-check against the library's own validator: the two were written
  // independently and must agree.
  const auto report = decluster::validate(s);
  std::uint32_t max_pair = 0;
  for (const auto& [key, count] : pair_counts) max_pair = std::max(max_pair, count);
  const bool agrees = report.replicas_distinct == distinct_ok &&
                      report.devices_in_range == range_ok &&
                      report.max_pair_count == max_pair;
  r.add("decluster::validate agrees", agrees,
        format("validate: distinct={} range={} max_pair={}; recomputed: "
               "distinct={} range={} max_pair={}",
               report.replicas_distinct, report.devices_in_range,
               report.max_pair_count, distinct_ok, range_ok, max_pair));

  if (expect.design_theoretic && range_ok && distinct_ok) {
    // Rotations of one block share all c devices; any other two buckets
    // share at most one (λ = 1). Anything in between breaks the guarantee.
    bool ok = true;
    std::string why;
    std::vector<std::vector<DeviceId>> sets;
    sets.reserve(s.buckets());
    for (BucketId b = 0; b < s.buckets(); ++b) sets.push_back(device_set(s, b));
    for (BucketId a = 0; a < s.buckets() && ok; ++a) {
      for (BucketId b = a + 1; b < s.buckets(); ++b) {
        const auto shared = intersection_size(sets[a], sets[b]);
        if (shared > 1 && sets[a] != sets[b]) {
          ok = false;
          why = format("buckets {} and {} share {} devices without being "
                       "rotations of one block",
                       a, b, shared);
          break;
        }
      }
    }
    r.add("pairwise intersections in {0, 1, c}", ok, why);
  }

  if (expect.uniform_load) {
    const auto [p_lo, p_hi] =
        std::minmax_element(primary_load.begin(), primary_load.end());
    const auto [t_lo, t_hi] =
        std::minmax_element(total_load.begin(), total_load.end());
    r.add("uniform primary load", *p_lo == *p_hi,
          format("range [{}, {}]", *p_lo, *p_hi));
    r.add("uniform total load", *t_lo == *t_hi,
          format("range [{}, {}]", *t_lo, *t_hi));
  }
  return r;
}

Report verify_block_mapper(const decluster::AllocationScheme& s,
                           std::uint64_t seed) {
  Report r(format("block-mapper on {}", s.name()));
  const std::size_t buckets = s.buckets();
  Rng rng(seed);

  // Fallback: an empty mapper is exactly the paper's modulo rule.
  core::BlockMapper fresh(s);
  bool fallback_ok = true;
  std::string why_fallback;
  for (int i = 0; i < 64; ++i) {
    const DataBlockId blk = rng() % (buckets * 1000);
    const auto m = fresh.map(blk);
    if (m.matched || m.bucket != static_cast<BucketId>(blk % buckets)) {
      fallback_ok = false;
      why_fallback = format("block {} mapped to {} (matched={}), expected "
                            "modulo {}",
                            blk, m.bucket, m.matched, blk % buckets);
      break;
    }
  }
  r.add("modulo fallback for unmapped blocks", fallback_ok, why_fallback);

  // Synthetic frequent pairs; strongest support first after rebuild().
  std::vector<fim::FrequentPair> pairs;
  for (std::uint32_t i = 0; i < 12; ++i) {
    pairs.push_back({.a = 2 * i, .b = 2 * i + 1, .support = 100 - i});
  }
  core::BlockMapper mapper(s);
  mapper.rebuild(pairs);

  bool range_ok = true;
  bool matched_ok = true;
  std::string why_mapped;
  for (const auto& p : pairs) {
    for (const DataBlockId blk : {p.a, p.b}) {
      const auto m = mapper.map(blk);
      if (!m.matched) {
        matched_ok = false;
        why_mapped = format("frequent block {} missing from the table", blk);
      }
      if (m.bucket >= buckets) {
        range_ok = false;
        why_mapped = format("block {} mapped to out-of-range bucket {}", blk,
                            m.bucket);
      }
    }
  }
  r.add("frequent blocks all mapped", matched_ok, why_mapped);
  r.add("mapped buckets in range", range_ok, why_mapped);

  // Determinism: rebuilding from the same pairs reproduces the table.
  core::BlockMapper again(s);
  again.rebuild(pairs);
  bool deterministic = true;
  for (const auto& p : pairs) {
    for (const DataBlockId blk : {p.a, p.b}) {
      if (mapper.map(blk).bucket != again.map(blk).bucket) deterministic = false;
    }
  }
  r.add("rebuild is deterministic", deterministic);

  // The strongest pair is placed first, so its partner bucket must achieve
  // the global minimum device overlap with the first pick — the mapper's
  // whole reason to exist.
  const auto ba = mapper.map(pairs.front().a).bucket;
  const auto bb = mapper.map(pairs.front().b).bucket;
  const auto set_a = device_set(s, ba);
  std::size_t achieved = intersection_size(set_a, device_set(s, bb));
  std::size_t best = s.copies();
  for (BucketId cand = 0; cand < buckets; ++cand) {
    if (cand == ba) continue;
    best = std::min(best, intersection_size(set_a, device_set(s, cand)));
  }
  r.add("top pair achieves minimum device overlap", achieved == best,
        format("overlap {}, minimum possible {}", achieved, best));

  // The fast rebuild against the reference placement, on pairs mined from
  // model slices: every block the slice reads must map as the reference maps
  // it.
  for (const auto& slice : model_slices()) {
    const auto mined = fim::mine_pairs_apriori(slice.db, 1).pairs;
    const auto reference = reference_placement(s, mined);
    core::BlockMapper fast(s);
    fast.rebuild(mined);
    std::string why;
    bool same = fast.table_size() == reference.size();
    if (!same) {
      why = format("table holds {} blocks, reference {}", fast.table_size(),
                   reference.size());
    }
    same = same && mapping_matches(reference, buckets, fast, slice.db.items(), &why);
    r.add(slice.name + " slice maps as the reference placement", same,
          same ? format("{} blocks, {} placed", slice.db.total_items(), reference.size())
               : why);
  }
  return r;
}

bool check_schedule(std::span<const BucketId> batch,
                    const decluster::AllocationScheme& scheme,
                    const retrieval::Schedule& schedule, std::string* why) {
  const auto fail = [&](std::string msg) {
    if (why != nullptr) *why = std::move(msg);
    return false;
  };
  if (schedule.assignments.size() != batch.size()) {
    return fail(format("{} assignments for {} requests",
                       schedule.assignments.size(), batch.size()));
  }
  std::uint32_t max_round = 0;
  std::set<std::pair<DeviceId, std::uint32_t>> occupied;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& a = schedule.assignments[i];
    const auto reps = scheme.replicas(batch[i]);
    if (std::find(reps.begin(), reps.end(), a.device) == reps.end()) {
      return fail(format("request {} (bucket {}) served by non-replica device "
                         "{}",
                         i, batch[i], a.device));
    }
    if (a.round >= schedule.rounds) {
      return fail(format("request {} in round {} >= rounds {}", i, a.round,
                         schedule.rounds));
    }
    if (!occupied.insert({a.device, a.round}).second) {
      return fail(format("device {} serves two requests in round {}", a.device,
                         a.round));
    }
    max_round = std::max(max_round, a.round);
  }
  if (!batch.empty() && schedule.rounds != max_round + 1) {
    return fail(format("rounds field {} but deepest round used is {}",
                       schedule.rounds, max_round));
  }
  return true;
}

namespace {

/// Exact equality — device, round, rounds, and solver label all match.
/// The reused-workspace oracle demands bit-identical schedules, not merely
/// equivalent ones.
bool schedules_equal(const retrieval::Schedule& a, const retrieval::Schedule& b) {
  if (a.rounds != b.rounds || a.via != b.via ||
      a.assignments.size() != b.assignments.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.assignments.size(); ++i) {
    if (a.assignments[i].device != b.assignments[i].device ||
        a.assignments[i].round != b.assignments[i].round) {
      return false;
    }
  }
  return true;
}

}  // namespace

Report verify_retrieval(const decluster::AllocationScheme& s,
                        const RetrievalParams& params) {
  Report r(format("retrieval on {} (N={}, {} trials)", s.name(), s.devices(),
                  params.trials));
  Rng rng(params.seed);
  const std::size_t max_batch =
      params.max_batch != 0 ? params.max_batch : 3 * s.devices();

  std::size_t dtr_invalid = 0;
  std::size_t opt_invalid = 0;
  std::size_t below_lower = 0;
  std::size_t not_minimal = 0;
  std::size_t dtr_beats_opt = 0;
  std::size_t combined_off = 0;
  std::size_t integrated_off = 0;
  std::size_t degraded_bad = 0;
  std::size_t ws_diverged = 0;
  std::string first_why;
  auto note = [&](std::size_t& counter, std::string why) {
    if (counter++ == 0 && first_why.empty()) first_why = std::move(why);
  };

  // One scratch carried across every trial (batch sizes interleave, the
  // degraded mask comes and goes): any state leaking between solves would
  // make a reused-workspace schedule diverge from its fresh-solver twin.
  retrieval::RetrievalScratch scratch;
  retrieval::Schedule ws_out;

  for (std::size_t trial = 0; trial < params.trials; ++trial) {
    const std::size_t k = 1 + rng.below(max_batch);
    std::vector<BucketId> batch(k);
    for (auto& b : batch) b = static_cast<BucketId>(rng.below(s.buckets()));

    std::string why;
    const auto fast = retrieval::dtr_schedule(batch, s);
    if (!check_schedule(batch, s, fast, &why)) {
      note(dtr_invalid, "dtr: " + why);
    }
    if (!schedules_equal(retrieval::dtr_schedule(batch, s, scratch), fast)) {
      note(ws_diverged, "reused-scratch dtr_schedule differs from fresh");
    }
    const auto exact = retrieval::optimal_schedule(batch, s);
    if (!check_schedule(batch, s, exact, &why)) {
      note(opt_invalid, "optimal: " + why);
    }
    if (!retrieval::optimal_schedule(batch, s, {}, scratch.flow, ws_out) ||
        !schedules_equal(ws_out, exact)) {
      note(ws_diverged, "reused-workspace optimal_schedule differs from fresh");
    }
    const auto lower = design::optimal_accesses(k, s.devices());
    if (exact.rounds < lower) {
      note(below_lower, format("optimal claims {} rounds below bound {}",
                               exact.rounds, lower));
    }
    // Minimality certificate: one round fewer must be infeasible.
    if (exact.rounds >= 2) {
      const auto fresh_feasible =
          retrieval::feasible_in_rounds(batch, s, exact.rounds - 1);
      if (fresh_feasible.has_value()) {
        note(not_minimal, format("schedule of {} rounds is not minimal — {} "
                                 "rounds suffice",
                                 exact.rounds, exact.rounds - 1));
      }
      const bool ws_feasible = retrieval::feasible_in_rounds(
          batch, s, exact.rounds - 1, {}, scratch.flow, ws_out);
      if (ws_feasible != fresh_feasible.has_value() ||
          (ws_feasible && !schedules_equal(ws_out, *fresh_feasible))) {
        note(ws_diverged, "reused-workspace feasible_in_rounds differs from fresh");
      }
    }
    if (fast.rounds < exact.rounds) {
      note(dtr_beats_opt, format("dtr found {} rounds, 'optimal' {}",
                                 fast.rounds, exact.rounds));
    }
    const auto combined = retrieval::retrieve(batch, s);
    if (combined.rounds != exact.rounds || !check_schedule(batch, s, combined)) {
      note(combined_off, format("retrieve() gives {} rounds, optimum {}",
                                combined.rounds, exact.rounds));
    }
    if (!schedules_equal(retrieval::retrieve(batch, s, scratch), combined)) {
      note(ws_diverged, "reused-scratch retrieve() differs from fresh");
    }
    const auto integrated = retrieval::integrated_optimal_schedule(batch, s);
    if (integrated.rounds != exact.rounds ||
        !check_schedule(batch, s, integrated)) {
      note(integrated_off, format("integrated solver gives {} rounds, optimum "
                                  "{}",
                                  integrated.rounds, exact.rounds));
    }
    retrieval::integrated_optimal_schedule(batch, s, scratch.flow, ws_out);
    if (!schedules_equal(ws_out, integrated)) {
      note(ws_diverged, "reused-workspace integrated solver differs from fresh");
    }

    // Degraded mode: fail one device; surviving replicas must carry the
    // batch without ever touching the failed device.
    if (s.copies() >= 2 && s.devices() >= 2) {
      const auto dead = static_cast<DeviceId>(rng.below(s.devices()));
      std::vector<bool> available(s.devices(), true);
      available[dead] = false;
      const auto degraded = retrieval::retrieve(batch, s, available);
      if (!degraded.has_value()) {
        note(degraded_bad, format("no degraded schedule with device {} down",
                                  dead));
      } else {
        const bool uses_dead = std::any_of(
            degraded->assignments.begin(), degraded->assignments.end(),
            [&](const auto& a) { return a.device == dead; });
        if (uses_dead || !check_schedule(batch, s, *degraded)) {
          note(degraded_bad,
               format("degraded schedule routes to failed device {}", dead));
        }
      }
      const retrieval::Schedule* ws_degraded =
          retrieval::retrieve(batch, s, available, scratch);
      if ((ws_degraded != nullptr) != degraded.has_value() ||
          (ws_degraded != nullptr && !schedules_equal(*ws_degraded, *degraded))) {
        note(ws_diverged, "reused-scratch degraded retrieve() differs from fresh");
      }
    }
  }

  const auto trials = params.trials;
  auto add = [&](const char* name, std::size_t failures) {
    r.add(name, failures == 0,
          failures == 0 ? format("{} trials", trials)
                        : format("{} of {} trials failed; first: {}", failures,
                                 trials, first_why));
  };
  add("dtr schedules valid", dtr_invalid);
  add("optimal schedules valid", opt_invalid);
  add("optimal rounds >= ceil(b/N)", below_lower);
  add("optimal rounds minimal (infeasible at rounds-1)", not_minimal);
  add("dtr never beats the exact optimum", dtr_beats_opt);
  add("retrieve() lands on the optimum", combined_off);
  add("integrated solver matches the optimum", integrated_off);
  add("degraded mode avoids failed devices", degraded_bad);
  add("reused workspace schedules == fresh solver schedules", ws_diverged);
  return r;
}

}  // namespace flashqos::verify
