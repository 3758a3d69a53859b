// Randomized equivalence suite for the zero-allocation retrieval core: a
// reused FlowWorkspace / RetrievalScratch must produce schedules identical
// — device, round, rounds, solver label — to a fresh solver, across batch
// sizes, schemes, availability masks, and interleaved shapes. Also covers
// the reusable MaxFlow's in-place capacity restore and the P_k memo's
// determinism (including under concurrency; scripts/check.sh runs this
// binary under ASan/UBSan and TSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "core/sampler.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "retrieval/dtr.hpp"
#include "retrieval/heterogeneous.hpp"
#include "retrieval/maxflow.hpp"
#include "retrieval/online.hpp"
#include "retrieval/workspace.hpp"
#include "util/rng.hpp"

namespace flashqos::retrieval {
namespace {

using decluster::DesignTheoretic;

const DesignTheoretic& scheme731() {
  static const auto d = design::fano();
  static const DesignTheoretic s(d);
  return s;
}

const DesignTheoretic& scheme931() {
  static const auto d = design::make_9_3_1();
  static const DesignTheoretic s(d);
  return s;
}

const DesignTheoretic& scheme1331() {
  static const auto d = design::make_13_3_1();
  static const DesignTheoretic s(d);
  return s;
}

void expect_schedules_equal(const Schedule& got, const Schedule& want,
                            const char* what) {
  ASSERT_EQ(got.assignments.size(), want.assignments.size()) << what;
  EXPECT_EQ(got.rounds, want.rounds) << what;
  EXPECT_EQ(got.via, want.via) << what;
  for (std::size_t i = 0; i < got.assignments.size(); ++i) {
    ASSERT_EQ(got.assignments[i].device, want.assignments[i].device)
        << what << " request " << i;
    ASSERT_EQ(got.assignments[i].round, want.assignments[i].round)
        << what << " request " << i;
  }
}

std::vector<BucketId> random_batch(Rng& rng, std::size_t k, std::uint32_t buckets) {
  std::vector<BucketId> batch(k);
  for (auto& b : batch) b = static_cast<BucketId>(rng.below(buckets));
  return batch;
}

/// Random availability mask: all-up (empty), or one/two dead devices —
/// chosen so every bucket keeps a live replica (copies >= 3 in the schemes
/// used here tolerates up to two failures only for distinct-replica
/// buckets; retrieve() reports unschedulable requests and the test accepts
/// either answer as long as fresh and reused agree).
std::vector<bool> random_mask(Rng& rng, std::uint32_t devices) {
  const auto dead = rng.below(3);
  if (dead == 0) return {};
  std::vector<bool> mask(devices, true);
  for (std::uint64_t i = 0; i < dead; ++i) {
    mask[rng.below(devices)] = false;
  }
  return mask;
}

TEST(Workspace, ReusedEqualsFreshAcrossShapesSchemesAndMasks) {
  const decluster::AllocationScheme* schemes[] = {&scheme731(), &scheme931(),
                                                  &scheme1331()};
  Rng rng(2026);
  // One scratch shared across every trial: scheme switches, batch-size
  // jumps, and mask flips all reuse the same buffers.
  RetrievalScratch scratch;
  Schedule ws_out;
  for (std::size_t trial = 0; trial < 200; ++trial) {
    const auto& s = *schemes[trial % std::size(schemes)];
    const std::size_t k = 1 + rng.below(3 * s.devices());
    const auto batch = random_batch(rng, k, s.buckets());

    expect_schedules_equal(dtr_schedule(batch, s, scratch),
                           dtr_schedule(batch, s), "dtr_schedule");
    const auto fresh_opt = optimal_schedule(batch, s);
    ASSERT_TRUE(optimal_schedule(batch, s, {}, scratch.flow, ws_out));
    expect_schedules_equal(ws_out, fresh_opt, "optimal_schedule");
    expect_schedules_equal(retrieve(batch, s, scratch), retrieve(batch, s),
                           "retrieve");
    integrated_optimal_schedule(batch, s, scratch.flow, ws_out);
    expect_schedules_equal(ws_out, integrated_optimal_schedule(batch, s),
                           "integrated_optimal_schedule");

    const auto mask = random_mask(rng, s.devices());
    const auto fresh_degraded = retrieve(batch, s, mask);
    const Schedule* ws_degraded = retrieve(batch, s, mask, scratch);
    ASSERT_EQ(ws_degraded != nullptr, fresh_degraded.has_value());
    if (ws_degraded != nullptr) {
      expect_schedules_equal(*ws_degraded, *fresh_degraded, "degraded retrieve");
    }
  }
}

TEST(Workspace, FeasibilityMatchesFreshIncludingInfeasibleRounds) {
  const auto& s = scheme931();
  Rng rng(7);
  RetrievalScratch scratch;
  Schedule ws_out;
  for (std::size_t trial = 0; trial < 150; ++trial) {
    const std::size_t k = 1 + rng.below(2 * s.devices());
    const auto batch = random_batch(rng, k, s.buckets());
    // Rounds from 0 (always infeasible for k >= 1) past the serial bound.
    const auto rounds = static_cast<std::uint32_t>(rng.below(k + 2));
    const auto mask = random_mask(rng, s.devices());
    const auto fresh = feasible_in_rounds(batch, s, rounds, mask);
    const bool ws_ok =
        feasible_in_rounds(batch, s, rounds, mask, scratch.flow, ws_out);
    ASSERT_EQ(ws_ok, fresh.has_value());
    if (ws_ok) expect_schedules_equal(ws_out, *fresh, "feasible_in_rounds");
  }
}

TEST(Workspace, InterleavedShapeChangesDoNotLeakState) {
  const auto& s = scheme1331();
  Rng rng(11);
  RetrievalScratch scratch;
  Schedule ws_out;
  // Alternate tiny and large batches so grown buffers are immediately
  // reused for smaller shapes (stale-tail bugs show up here).
  const std::size_t sizes[] = {1, 64, 3, 128, 2, 96, 39, 5};
  for (std::size_t round = 0; round < 8; ++round) {
    for (const auto k : sizes) {
      const auto batch = random_batch(rng, k, s.buckets());
      const auto fresh = optimal_schedule(batch, s);
      ASSERT_TRUE(optimal_schedule(batch, s, {}, scratch.flow, ws_out));
      expect_schedules_equal(ws_out, fresh, "interleaved optimal_schedule");
    }
  }
}

TEST(Workspace, HeterogeneousScratchMatchesFresh) {
  const auto& s = scheme931();
  Rng rng(23);
  RetrievalScratch scratch;
  for (std::size_t trial = 0; trial < 60; ++trial) {
    const std::size_t k = 1 + rng.below(2 * s.devices());
    const auto batch = random_batch(rng, k, s.buckets());
    std::vector<SimTime> service(s.devices());
    for (auto& t : service) t = 1 + static_cast<SimTime>(rng.below(9));
    const auto fresh = optimal_makespan_schedule(batch, s, service);
    const auto reused = optimal_makespan_schedule(batch, s, service, scratch);
    EXPECT_TRUE(valid_heterogeneous_schedule(batch, s, service, reused));
    ASSERT_EQ(reused.makespan, fresh.makespan);
    ASSERT_EQ(reused.assignments.size(), fresh.assignments.size());
    for (std::size_t i = 0; i < fresh.assignments.size(); ++i) {
      EXPECT_EQ(reused.assignments[i].device, fresh.assignments[i].device);
      EXPECT_EQ(reused.assignments[i].start_offset,
                fresh.assignments[i].start_offset);
    }
  }
}

TEST(Workspace, MaxFlowCapacityRestoreEqualsFreshSolve) {
  // Same network solved three ways: fresh per capacity, reset + set, and
  // raise-and-rerun; the total flow must agree everywhere and the reset
  // path must agree edge for edge with a fresh build.
  const auto build = [](MaxFlow& mf, std::int64_t sink_cap,
                        std::vector<std::uint32_t>& ids) {
    mf.begin(6);
    ids.clear();
    ids.push_back(mf.add_edge(0, 1, 1));
    ids.push_back(mf.add_edge(0, 2, 1));
    ids.push_back(mf.add_edge(1, 3, 1));
    ids.push_back(mf.add_edge(1, 4, 1));
    ids.push_back(mf.add_edge(2, 4, 1));
    ids.push_back(mf.add_edge(3, 5, sink_cap));
    ids.push_back(mf.add_edge(4, 5, sink_cap));
  };
  std::vector<std::uint32_t> fresh_ids;
  std::vector<std::uint32_t> reused_ids;
  MaxFlow reused;
  build(reused, 0, reused_ids);
  EXPECT_EQ(reused.run(0, 5), 0);
  for (std::int64_t cap = 0; cap <= 3; ++cap) {
    MaxFlow fresh;
    build(fresh, cap, fresh_ids);
    const auto want = fresh.run(0, 5);
    reused.reset_capacities();
    reused.set_capacity(reused_ids[5], cap);
    reused.set_capacity(reused_ids[6], cap);
    EXPECT_EQ(reused.run(0, 5), want) << "sink cap " << cap;
    for (std::size_t e = 0; e < fresh_ids.size(); ++e) {
      EXPECT_EQ(reused.flow_on(reused_ids[e]), fresh.flow_on(fresh_ids[e]))
          << "edge " << e << " at sink cap " << cap;
    }
  }
}

TEST(Workspace, OnlineRetrieverInternalScratchIsDeterministic) {
  const auto& s = scheme931();
  OnlineRetriever a(s, 100);
  OnlineRetriever b(s, 100);
  Rng rng(31);
  SimTime now = 0;
  for (std::size_t step = 0; step < 40; ++step) {
    now += static_cast<SimTime>(rng.below(500));
    const std::size_t k = 1 + rng.below(12);
    const auto batch = random_batch(rng, k, s.buckets());
    const auto da = a.submit_batch(batch, now);
    const auto db = b.submit_batch(batch, now);
    ASSERT_EQ(da.size(), db.size());
    for (std::size_t i = 0; i < da.size(); ++i) {
      EXPECT_EQ(da[i].device, db[i].device);
      EXPECT_EQ(da[i].start, db[i].start);
      EXPECT_EQ(da[i].finish, db[i].finish);
    }
  }
  EXPECT_EQ(a.horizon(), b.horizon());
}

TEST(Workspace, ConcurrentScratchesMatchSerialResults) {
  // One scratch per thread over a shared scheme: any hidden shared state in
  // the workspace path shows up as a divergence (and as a TSan report in
  // the sanitizer stages of scripts/check.sh).
  const auto& s = scheme931();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kTrials = 50;
  std::vector<std::vector<Schedule>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(41 + t);
      RetrievalScratch scratch;
      for (std::size_t trial = 0; trial < kTrials; ++trial) {
        const std::size_t k = 1 + rng.below(2 * s.devices());
        const auto batch = random_batch(rng, k, s.buckets());
        results[t].push_back(retrieve(batch, s, scratch));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    Rng rng(41 + t);
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      const std::size_t k = 1 + rng.below(2 * s.devices());
      const auto batch = random_batch(rng, k, s.buckets());
      expect_schedules_equal(results[t][trial], retrieve(batch, s),
                             "concurrent scratch");
    }
  }
}

TEST(PkMemo, CachedEqualsUncachedAndRepeatable) {
  const auto& s = scheme931();
  // Unique seed per run so the first cached call is a genuine miss even if
  // other tests in this binary sampled the same scheme.
  const core::SamplerParams cached{.samples_per_size = 200, .seed = 0xC0FFEE};
  core::SamplerParams uncached = cached;
  uncached.cache = false;
  const auto a = core::sample_optimal_probabilities(s, 12, cached);
  const auto b = core::sample_optimal_probabilities(s, 12, cached);
  const auto c = core::sample_optimal_probabilities(s, 12, uncached);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  ASSERT_EQ(a.size(), 13U);
  EXPECT_EQ(a[0], 1.0);
}

TEST(PkMemo, DistinctKeysDoNotCollide) {
  // max_k well past the scheme's deterministic guarantee so the tail
  // P_k values are genuinely probabilistic (all-1.0 tables would make
  // seed-aliasing invisible).
  const auto& s = scheme931();
  const core::SamplerParams base{.samples_per_size = 100, .seed = 99};
  core::SamplerParams other_seed = base;
  other_seed.seed = 100;
  const auto p_base = core::sample_optimal_probabilities(s, 24, base);
  const auto p_seed = core::sample_optimal_probabilities(s, 24, other_seed);
  const auto p_longer = core::sample_optimal_probabilities(s, 25, base);
  EXPECT_NE(p_base, p_seed);  // different RNG stream
  ASSERT_EQ(p_longer.size(), 26U);
  // A longer table is a different key, but the shared prefix is the same
  // computation (per-size RNG streams).
  for (std::size_t k = 0; k <= 24; ++k) EXPECT_EQ(p_longer[k], p_base[k]);
  // Different scheme, same parameters: must not alias.
  const auto p_other_scheme =
      core::sample_optimal_probabilities(scheme1331(), 24, base);
  EXPECT_NE(p_base, p_other_scheme);
}

TEST(PkMemo, ConcurrentSameKeyCallersShareOneTable) {
  const auto& s = scheme731();
  const core::SamplerParams params{.samples_per_size = 300, .seed = 0xDEAD};
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<double>> tables(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { tables[t] = core::sample_optimal_probabilities(s, 10, params); });
  }
  for (auto& th : threads) th.join();
  core::SamplerParams uncached = params;
  uncached.cache = false;
  const auto want = core::sample_optimal_probabilities(s, 10, uncached);
  for (const auto& table : tables) EXPECT_EQ(table, want);
}

}  // namespace
}  // namespace flashqos::retrieval
