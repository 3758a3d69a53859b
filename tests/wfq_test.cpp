// WFQ ordering-core and tenant-scheduler unit tests.
//
// The centerpiece is a brute-force reference simulator: an independent
// restatement of the WFQ semantics (virtual finish tags, index-order
// renormalization, ECN mark/shed, clock-free drops) exercised against
// core::WfqQueues on randomized enqueue/dispense/drop/exclusion patterns.
// Agreement is *bit-exact*, including the virtual clock — wfq.cpp promises
// the same additions in the same order, and this suite is the promise's
// enforcement point.
//
// The knob-divergence tests prove each WfqKnobs mutation changes observable
// behaviour at this layer, so the fairness oracle's mutation-liveness pass
// (flashqos_verify --fairness) is testing real defects, not dead switches.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/qos_pipeline.hpp"
#include "core/tenant_scheduler.hpp"
#include "core/wfq.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "util/rng.hpp"
#include "verify/fairness_oracle.hpp"

using namespace flashqos;
using core::PipelineConfig;
using core::QosPipeline;
using core::TenantScheduler;
using core::TenantSpec;
using core::WfqKnobs;
using core::WfqQueues;
using Enq = core::WfqQueues::Enqueue;

namespace {

// Independent brute-force restatement of the WFQ semantics. Deliberately
// naive (flat vectors, erase-from-front) — the value is that it re-derives
// every rule from the spec in wfq.hpp rather than sharing code with the
// production structure.
class ReferenceWfq {
 public:
  ReferenceWfq(std::vector<double> w, std::vector<std::size_t> cap,
               std::vector<std::size_t> mark)
      : w_(std::move(w)),
        cap_(std::move(cap)),
        mark_(std::move(mark)),
        items_(w_.size()),
        last_(w_.size(), 0.0) {}

  Enq enqueue(std::size_t q, std::uint64_t id) {
    if (items_[q].size() >= cap_[q]) return Enq::kShed;
    const double finish = std::max(vtime_, last_[q]) + 1.0 / w_[q];
    last_[q] = finish;
    items_[q].push_back(Tagged{id, finish});
    return items_[q].size() >= mark_[q] ? Enq::kMarked : Enq::kAccepted;
  }

  [[nodiscard]] std::optional<std::size_t> next(
      const std::vector<bool>& exclude) const {
    std::optional<std::size_t> best;
    for (std::size_t q = 0; q < items_.size(); ++q) {
      if (items_[q].empty()) continue;
      if (!exclude.empty() && exclude[q]) continue;
      if (!best || items_[q].front().finish < items_[*best].front().finish) {
        best = q;
      }
    }
    return best;
  }

  std::uint64_t pop(std::size_t q) {
    // Rate = weight sum over backlogged queues, summed in index order,
    // measured before the head is removed.
    double rate = 0.0;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (!items_[i].empty()) rate += w_[i];
    }
    const std::uint64_t id = items_[q].front().id;
    items_[q].erase(items_[q].begin());
    vtime_ += 1.0 / rate;
    return id;
  }

  std::uint64_t drop_head(std::size_t q) {
    const std::uint64_t id = items_[q].front().id;
    items_[q].erase(items_[q].begin());
    return id;
  }

  [[nodiscard]] double vtime() const { return vtime_; }
  [[nodiscard]] std::size_t depth(std::size_t q) const {
    return items_[q].size();
  }

 private:
  struct Tagged {
    std::uint64_t id;
    double finish;
  };
  std::vector<double> w_;
  std::vector<std::size_t> cap_;
  std::vector<std::size_t> mark_;
  std::vector<std::vector<Tagged>> items_;
  std::vector<double> last_;
  double vtime_ = 0.0;
};

TEST(Wfq, HandComputedVirtualTags) {
  WfqQueues w({2.0, 1.0}, {8, 8}, {8, 8});
  EXPECT_EQ(w.enqueue(0, 10), Enq::kAccepted);  // F = 0 + 1/2
  EXPECT_EQ(w.enqueue(0, 11), Enq::kAccepted);  // F = 1/2 + 1/2 = 1
  EXPECT_EQ(w.enqueue(1, 20), Enq::kAccepted);  // F = 0 + 1 = 1

  ASSERT_TRUE(w.next({}).has_value());
  EXPECT_EQ(*w.next({}), 0u);  // 0.5 beats 1.0
  EXPECT_EQ(w.pop(0), 10u);
  EXPECT_EQ(w.virtual_time(), 1.0 / 3.0);  // both backlogged: rate 3

  // Heads now tie at F = 1.0; the lower index wins.
  EXPECT_EQ(*w.next({}), 0u);
  EXPECT_EQ(w.pop(0), 11u);
  EXPECT_EQ(w.virtual_time(), 1.0 / 3.0 + 1.0 / 3.0);

  EXPECT_EQ(*w.next({}), 1u);
  EXPECT_EQ(w.pop(1), 20u);  // alone: rate 1
  EXPECT_EQ(w.virtual_time(), 1.0 / 3.0 + 1.0 / 3.0 + 1.0);
  EXPECT_FALSE(w.next({}).has_value());
}

TEST(Wfq, RenormalizationCountsBackloggedWeightOnly) {
  // Two equal-weight queues, but only one is backlogged: the active tenant
  // gets the full rate, so V advances by a whole unit, not half.
  WfqQueues w({1.0, 1.0}, {4, 4}, {4, 4});
  (void)w.enqueue(0, 1);
  (void)w.pop(0);
  EXPECT_EQ(w.virtual_time(), 1.0);
}

TEST(Wfq, BacklogReentryRetagsFromVirtualTime) {
  WfqQueues w({1.0, 1.0}, {4, 4}, {4, 4});
  // Queue 0 serves one request alone (V -> 1, last_finish(0) = 1), then
  // queue 1 serves two alone (V -> 3). Queue 0 re-enters with a stale
  // last_finish: the new tag must start from V = 3, not from 1.
  (void)w.enqueue(0, 1);
  (void)w.pop(0);
  (void)w.enqueue(1, 2);
  (void)w.enqueue(1, 3);
  (void)w.pop(1);
  (void)w.pop(1);
  EXPECT_EQ(w.virtual_time(), 3.0);
  (void)w.enqueue(0, 4);  // F = max(3, 1) + 1 = 4
  (void)w.enqueue(1, 5);  // F = max(3, 3) + 1 = 4 — tie, index 0 first
  EXPECT_EQ(*w.next({}), 0u);

  // Opposite edge: a queue whose last_finish is *ahead* of V keeps its tag
  // chain (back-to-back enqueues may not leapfrog each other).
  WfqQueues v({1.0}, {4}, {4});
  (void)v.enqueue(0, 1);  // F = 1
  (void)v.enqueue(0, 2);  // F = max(0, 1) + 1 = 2, not 1
  (void)v.pop(0);         // V = 1
  (void)v.enqueue(0, 3);  // F = max(1, 2) + 1 = 3
  (void)v.pop(0);         // V = 2
  (void)v.pop(0);
  EXPECT_EQ(v.virtual_time(), 3.0);
}

TEST(Wfq, MarkAndShedThresholds) {
  WfqQueues w({1.0}, {3}, {2});
  EXPECT_EQ(w.enqueue(0, 1), Enq::kAccepted);  // depth 1 < mark 2
  EXPECT_EQ(w.enqueue(0, 2), Enq::kMarked);    // depth 2 >= mark
  EXPECT_EQ(w.enqueue(0, 3), Enq::kMarked);    // depth 3 (= capacity)
  EXPECT_EQ(w.enqueue(0, 4), Enq::kShed);      // full: dropped pre-push
  EXPECT_EQ(w.depth(0), 3u);
  // A shed request must not burn a virtual finish tag: the next accepted
  // request continues the chain from the last *accepted* one (F = 3 + 1).
  (void)w.pop(0);
  EXPECT_EQ(w.enqueue(0, 5), Enq::kMarked);
  (void)w.pop(0);
  (void)w.pop(0);
  EXPECT_EQ(*w.next({}), 0u);
  (void)w.pop(0);
  EXPECT_EQ(w.virtual_time(), 4.0);  // four services at rate 1
}

TEST(Wfq, DropHeadDoesNotAdvanceClock) {
  WfqQueues w({1.0, 1.0}, {4, 4}, {4, 4});
  (void)w.enqueue(0, 1);
  (void)w.enqueue(1, 2);
  EXPECT_EQ(w.drop_head(0), 1u);
  EXPECT_EQ(w.virtual_time(), 0.0);  // no service rendered
  EXPECT_EQ(w.queued(), 1u);
  // The drop emptied queue 0, so the next pop runs at queue 1's solo rate.
  (void)w.pop(1);
  EXPECT_EQ(w.virtual_time(), 1.0);
}

TEST(Wfq, ExclusionMaskSkipsMinimumHead) {
  WfqQueues w({1.0, 2.0}, {4, 4}, {4, 4});
  (void)w.enqueue(0, 1);  // F = 1
  (void)w.enqueue(1, 2);  // F = 0.5 — the honest minimum
  std::vector<bool> exclude{false, true};
  EXPECT_EQ(*w.next(exclude), 0u);
  exclude = {true, true};
  EXPECT_FALSE(w.next(exclude).has_value());
}

// The main event: randomized op sequences against the reference, with
// bit-exact agreement on verdicts, dispatch picks, served ids, depths, and
// the virtual clock itself.
TEST(Wfq, RandomizedAgainstBruteForceReference) {
  for (std::uint64_t trial = 0; trial < 60; ++trial) {
    Rng rng(shard_seed(0xFA1Bu, trial));
    const std::size_t nq = 2 + rng.below(3);
    std::vector<double> weights;
    std::vector<std::size_t> caps, marks;
    const double weight_menu[] = {0.5, 1.0, 2.0, 3.0};
    for (std::size_t q = 0; q < nq; ++q) {
      weights.push_back(weight_menu[rng.below(4)]);
      caps.push_back(1 + rng.below(4));
      marks.push_back(1 + rng.below(caps.back()));
    }
    WfqQueues dut(weights, caps, marks);
    ReferenceWfq ref(weights, caps, marks);

    std::uint64_t next_id = 1;
    for (std::size_t op = 0; op < 300; ++op) {
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " op " << op);
      const std::uint64_t kind = rng.below(10);
      if (kind < 5) {
        const std::size_t q = rng.below(nq);
        const std::uint64_t id = next_id++;
        ASSERT_EQ(dut.enqueue(q, id), ref.enqueue(q, id));
      } else if (kind < 9) {
        std::vector<bool> exclude;
        if (rng.below(4) == 0) {
          exclude.resize(nq);
          for (std::size_t q = 0; q < nq; ++q) exclude[q] = rng.below(2) == 0;
        }
        const auto a = dut.next(exclude);
        const auto b = ref.next(exclude);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a) {
          ASSERT_EQ(*a, *b);
          ASSERT_EQ(dut.pop(*a), ref.pop(*b));
        }
      } else if (dut.backlogged()) {
        std::size_t q = rng.below(nq);
        while (dut.depth(q) == 0) q = (q + 1) % nq;
        ASSERT_EQ(dut.drop_head(q), ref.drop_head(q));
      }
      // Bit-exact, not approximate: same additions in the same order.
      ASSERT_EQ(dut.virtual_time(), ref.vtime());
      for (std::size_t q = 0; q < nq; ++q) {
        ASSERT_EQ(dut.depth(q), ref.depth(q));
      }
    }
  }
}

// --- Knob divergence: each deliberate defect is observable right here, at
// --- the layer it is injected, so the oracle's mutation pass has teeth.

TEST(WfqKnobsTest, FifoOrderServesLowestIndexNotMinimumTag) {
  WfqQueues honest({1.0, 3.0}, {4, 4}, {4, 4});
  WfqQueues mutant({1.0, 3.0}, {4, 4}, {4, 4}, {.fifo_order = true});
  for (auto* w : {&honest, &mutant}) {
    (void)w->enqueue(0, 1);  // F = 1
    (void)w->enqueue(1, 2);  // F = 1/3: the honest pick
  }
  EXPECT_EQ(*honest.next({}), 1u);
  EXPECT_EQ(*mutant.next({}), 0u);
}

TEST(WfqKnobsTest, SkipRenormalizationFreezesClockRate) {
  WfqQueues honest({1.0, 1.0}, {4, 4}, {4, 4});
  WfqQueues mutant({1.0, 1.0}, {4, 4}, {4, 4}, {.skip_renormalization = true});
  for (auto* w : {&honest, &mutant}) {
    (void)w->enqueue(0, 1);
    (void)w->pop(0);
  }
  EXPECT_EQ(honest.virtual_time(), 1.0);  // solo tenant: full rate
  EXPECT_EQ(mutant.virtual_time(), 0.5);  // frozen at 1/W_total
}

// --- TenantScheduler: floors, shared pool, degraded rescale, starvation
// --- guard, and the two scheduler-layer knobs.

std::vector<std::uint64_t> dispense_all(TenantScheduler& s,
                                        bool unlimited = false) {
  std::vector<std::uint64_t> served(s.tenants(), 0);
  while (const auto t = s.next_candidate({}, unlimited)) {
    (void)s.pop(*t, unlimited);
    ++served[*t];
  }
  return served;
}

TEST(TenantSchedulerTest, FloorThenSharedAgainstAHeavyFlooder) {
  // "a" is weight-1 with a floor of 2; "b" is a weight-100 flooder with no
  // reservation. S = 5, shared = 3. The flooder's tiny tags win every
  // shared slot, but budget exclusion stops it there and a's floor drains.
  const std::vector<TenantSpec> specs{
      {.name = "a", .weight = 1.0, .reservation = 2},
      {.name = "b", .weight = 100.0, .reservation = 0},
  };
  TenantScheduler s(specs, 5);
  for (std::uint64_t i = 0; i < 4; ++i) (void)s.enqueue(0, i);
  for (std::uint64_t i = 0; i < 8; ++i) (void)s.enqueue(1, 100 + i);

  const auto served = dispense_all(s);
  EXPECT_EQ(served[0], 2u);  // exactly its floor
  EXPECT_EQ(served[1], 3u);  // exactly the shared pool
  EXPECT_EQ(s.usage(0).admitted, 2u);
  EXPECT_EQ(s.usage(1).admitted, 3u);

  // Degraded budget S' = 3: floor(2·3/5) = 1 for a, shared = 2.
  s.begin_interval(3);
  const auto degraded = dispense_all(s);
  EXPECT_EQ(degraded[0], 1u);
  EXPECT_EQ(degraded[1], 2u);
}

TEST(TenantSchedulerTest, StarvationGuardDonatesOneFloorSlot) {
  // Reservations consume the whole budget while b has none: without the
  // guard b could never drain. One slot moves from the largest floor to
  // the shared pool; b's lower tag (weight 2) claims it.
  const std::vector<TenantSpec> specs{
      {.name = "a", .weight = 1.0, .reservation = 5},
      {.name = "b", .weight = 2.0, .reservation = 0},
  };
  TenantScheduler s(specs, 5);
  for (std::uint64_t i = 0; i < 8; ++i) (void)s.enqueue(0, i);
  for (std::uint64_t i = 0; i < 8; ++i) (void)s.enqueue(1, 100 + i);
  const auto served = dispense_all(s);
  EXPECT_EQ(served[0], 4u);  // floor 5 minus the donated slot
  EXPECT_EQ(served[1], 1u);  // the donation, via the shared pool
}

TEST(TenantSchedulerTest, PipelineRejectsReservationsAboveTheBudget) {
  // (9,3,1) at M = 1 has S = 5: floors of 3 + 3 cannot both be held.
  const auto d = design::make_9_3_1();
  const decluster::DesignTheoretic scheme(d, true);
  PipelineConfig cfg;
  cfg.access_budget = 1;
  cfg.tenants = {{.name = "a", .reservation = 3}, {.name = "b", .reservation = 3}};
  EXPECT_DEATH((void)QosPipeline(scheme, cfg), "exceed the interval budget");
}

TEST(TenantSchedulerTest, UnlimitedModeBypassesBudgetAccounting) {
  const std::vector<TenantSpec> specs{
      {.name = "a", .weight = 1.0, .reservation = 0}};
  TenantScheduler s(specs, 5);
  for (std::uint64_t i = 0; i < 8; ++i) (void)s.enqueue(0, i);
  EXPECT_EQ(dispense_all(s)[0], 5u);             // budgeted: exactly S
  EXPECT_EQ(dispense_all(s, true)[0], 3u);       // unlimited: the rest
  EXPECT_EQ(s.usage(0).admitted, 8u);
}

TEST(TenantSchedulerTest, IgnoreReservationsKnobLetsFlooderEatTheFloor) {
  const std::vector<TenantSpec> specs{
      {.name = "a", .weight = 1.0, .reservation = 2},
      {.name = "b", .weight = 100.0, .reservation = 0},
  };
  TenantScheduler s(specs, 5, {.ignore_reservations = true});
  for (std::uint64_t i = 0; i < 4; ++i) (void)s.enqueue(0, i);
  for (std::uint64_t i = 0; i < 8; ++i) (void)s.enqueue(1, 100 + i);
  const auto served = dispense_all(s);
  EXPECT_EQ(served[0], 0u);  // the guaranteed tenant got nothing
  EXPECT_EQ(served[1], 5u);  // the flooder took the whole budget
}

TEST(TenantSchedulerTest, LeakBudgetKnobOverDispensesTheInterval) {
  const std::vector<TenantSpec> specs{
      {.name = "a", .weight = 1.0, .reservation = 0}};
  TenantScheduler s(specs, 5, {.leak_budget = true});
  for (std::uint64_t i = 0; i < 8; ++i) (void)s.enqueue(0, i);
  EXPECT_EQ(dispense_all(s)[0], 8u);  // 8 > S = 5 in one interval
}

TEST(TenantSchedulerTest, UsageTalliesArrivalsShedsMarksDepth) {
  const std::vector<TenantSpec> specs{{.name = "a",
                                       .weight = 1.0,
                                       .reservation = 0,
                                       .queue_capacity = 3,
                                       .mark_threshold = 2}};
  TenantScheduler s(specs, 5);
  EXPECT_EQ(s.enqueue(0, 1), Enq::kAccepted);
  EXPECT_EQ(s.enqueue(0, 2), Enq::kMarked);
  EXPECT_EQ(s.enqueue(0, 3), Enq::kMarked);
  EXPECT_EQ(s.enqueue(0, 4), Enq::kShed);
  const auto& u = s.usage(0);
  EXPECT_EQ(u.arrivals, 3u);  // shed requests never count as arrivals
  EXPECT_EQ(u.shed, 1u);
  EXPECT_EQ(u.marked, 2u);
  EXPECT_EQ(u.max_depth, 3u);
}

// Oracle smoke: one seeded mix through the full pipeline plus the
// mutation-liveness pass (every knob must trip at least one check). The
// heavyweight multi-mix run stays in verify_cli_smoke / check.sh.
TEST(FairnessOracleTest, SmokeHonestChecksAndMutationLiveness) {
  const auto d = design::make_9_3_1();
  const decluster::DesignTheoretic scheme(d, true);
  verify::FairnessOracleParams p;
  p.mixes = 1;
  p.intervals = 24;
  p.mutations = true;
  const auto report = verify::verify_fairness(scheme, p);
  EXPECT_TRUE(report.passed()) << report.to_string(true);
}

}  // namespace
