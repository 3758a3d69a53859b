// Tests for the invariant verifier subsystem (src/verify).
//
// Two directions: healthy structures must pass every check, and — the part
// an oracle is useless without — deliberately corrupted structures must be
// DETECTED. Each mutation test plants one violation and asserts the exact
// check that should catch it does.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/qos_pipeline.hpp"
#include "decluster/schemes.hpp"
#include "design/catalog.hpp"
#include "design/constructions.hpp"
#include "fim/apriori.hpp"
#include "obs/metrics.hpp"
#include "retrieval/maxflow.hpp"
#include "trace/synthetic.hpp"
#include "trace/workload.hpp"
#include "verify/fim_oracle.hpp"
#include "verify/guarantee.hpp"
#include "verify/invariants.hpp"
#include "verify/obs_check.hpp"
#include "verify/resim_oracle.hpp"

namespace flashqos {
namespace {

using decluster::DesignTheoretic;
using verify::Report;

bool check_failed(const Report& r, const std::string& needle) {
  return std::any_of(r.checks().begin(), r.checks().end(), [&](const auto& c) {
    return !c.passed && c.name.find(needle) != std::string::npos;
  });
}

// ---------------------------------------------------------------- healthy

TEST(VerifyDesign, SteinerSystemsPassEveryCheck) {
  for (auto* make :
       {+[] { return design::fano(); }, +[] { return design::make_9_3_1(); },
        +[] { return design::make_13_3_1(); }}) {
    const auto d = make();
    const auto r = verify::verify_design(d);
    EXPECT_TRUE(r.passed()) << r.to_string();
  }
}

TEST(VerifyDesign, PartialDesignStillLinearSpace) {
  auto blocks = design::make_13_3_1().blocks();
  blocks.resize(blocks.size() - 4);
  const design::BlockDesign partial(13, blocks, "partial-13");
  const auto r = verify::verify_design(partial);
  EXPECT_TRUE(r.passed()) << r.to_string();
}

TEST(VerifyBucketTable, RotatedAndUnrotatedPass) {
  const auto d = design::make_9_3_1();
  EXPECT_TRUE(verify::verify_bucket_table(d, true).passed());
  EXPECT_TRUE(verify::verify_bucket_table(d, false).passed());
}

TEST(VerifyAllocation, DesignTheoreticPassesStrictExpectations) {
  const auto d = design::make_9_3_1();
  const DesignTheoretic s(d, true);
  const auto r = verify::verify_allocation(
      s, {.design_theoretic = true, .uniform_load = true});
  EXPECT_TRUE(r.passed()) << r.to_string();
}

TEST(VerifyAllocation, BaselineSchemesPassStructuralChecks) {
  const decluster::Raid1Chained chained(8, 2, 40);
  EXPECT_TRUE(verify::verify_allocation(chained).passed());
  const decluster::RandomDuplicate rda(11, 3, 50, 7);
  EXPECT_TRUE(verify::verify_allocation(rda).passed());
  const decluster::Orthogonal orth(7);
  EXPECT_TRUE(verify::verify_allocation(orth).passed());
}

TEST(VerifyRetrieval, DesignAndRandomSchemesCrossCheckClean) {
  const auto d = design::make_9_3_1();
  const DesignTheoretic s(d, true);
  const auto r = verify::verify_retrieval(s, {.trials = 25, .seed = 3});
  EXPECT_TRUE(r.passed()) << r.to_string();

  const decluster::RandomDuplicate rda(9, 2, 40, 11);
  const auto r2 = verify::verify_retrieval(rda, {.trials = 25, .seed = 4});
  EXPECT_TRUE(r2.passed()) << r2.to_string();
}

TEST(VerifyGuarantee, ArithmeticIdentitiesHold) {
  const auto r = verify::verify_guarantee_arithmetic();
  EXPECT_TRUE(r.passed()) << r.to_string();
}

TEST(VerifyGuarantee, FanoBoundExhaustive) {
  const auto d = design::fano();
  verify::GuaranteeParams p;
  p.max_accesses = 1;
  const auto r = verify::verify_guarantee(d, p);
  EXPECT_TRUE(r.passed()) << r.to_string();
  // C(21, 5) = 20349 fits the default budget, so this really enumerated.
  ASSERT_FALSE(r.checks().empty());
  EXPECT_NE(r.checks().front().name.find("exhaustive"), std::string::npos);
}

TEST(VerifyCatalog, SmallEntriesPassEndToEnd) {
  verify::CatalogCheckParams params;
  params.guarantee.exhaustive_budget = 30000;
  params.guarantee.sampled_trials = 40;
  params.retrieval.trials = 20;
  for (const auto& e : design::catalog()) {
    if (e.devices > 13) continue;
    const auto r = verify::verify_catalog_entry(e, params);
    EXPECT_TRUE(r.passed()) << r.to_string();
  }
}

TEST(VerifyBinomial, SmallValuesAndClamp) {
  EXPECT_EQ(verify::binomial_clamped(0, 0), 1u);
  EXPECT_EQ(verify::binomial_clamped(5, 2), 10u);
  EXPECT_EQ(verify::binomial_clamped(21, 5), 20349u);
  EXPECT_EQ(verify::binomial_clamped(42, 14), 52860229080u);
  EXPECT_EQ(verify::binomial_clamped(10, 11), 0u);
  // C(200, 100) overflows 63 bits and must clamp, not wrap.
  EXPECT_EQ(verify::binomial_clamped(200, 100),
            static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()));
}

// --------------------------------------------------------------- mutations

TEST(VerifyDesignMutation, RepeatedPairIsDetected) {
  // Blocks {0,1,2} and {0,1,3} give pair (0,1) co-occurrence 2.
  const design::BlockDesign bad(4, {{0, 1, 2}, {0, 1, 3}}, "bad-pair");
  const auto r = verify::verify_design(bad);
  EXPECT_FALSE(r.passed());
  EXPECT_TRUE(check_failed(r, "pair co-occurrence")) << r.to_string();
}

TEST(VerifyDesignMutation, IdleDeviceIsDetected) {
  // Point 4 appears in no block: a device that never carries load.
  const design::BlockDesign bad(5, {{0, 1, 2}}, "idle-device");
  const auto r = verify::verify_design(bad);
  EXPECT_TRUE(check_failed(r, "every device carries load")) << r.to_string();
}

// A scheme whose constructor lies: replica table built by the test, free to
// violate any invariant the verifier must catch.
class CorruptScheme final : public decluster::AllocationScheme {
 public:
  CorruptScheme(std::uint32_t devices, std::uint32_t copies,
                std::vector<DeviceId> table)
      : AllocationScheme("corrupt", devices, copies) {
    set_table(std::move(table));
  }
};

TEST(VerifyAllocationMutation, DuplicateReplicaDeviceIsDetected) {
  // Bucket 1 stores both copies on device 2.
  const CorruptScheme s(4, 2, {0, 1, 2, 2, 1, 3});
  const auto r = verify::verify_allocation(s);
  EXPECT_FALSE(r.passed());
  EXPECT_TRUE(check_failed(r, "distinct per bucket")) << r.to_string();
}

TEST(VerifyAllocationMutation, PairSharingAboveDesignBoundIsDetected) {
  // Buckets {0,1,2} and {0,1,3}: share two devices yet differ — impossible
  // for rotations of a λ=1 design.
  const CorruptScheme s(4, 3, {0, 1, 2, 0, 1, 3});
  const auto r = verify::verify_allocation(s, {.design_theoretic = true});
  EXPECT_FALSE(r.passed());
  EXPECT_TRUE(check_failed(r, "pairwise intersections")) << r.to_string();
}

TEST(VerifyAllocationMutation, SkewedLoadIsDetected) {
  // Device 0 carries every primary.
  const CorruptScheme s(4, 2, {0, 1, 0, 2, 0, 3});
  const auto r = verify::verify_allocation(s, {.uniform_load = true});
  EXPECT_FALSE(r.passed());
  EXPECT_TRUE(check_failed(r, "uniform primary load")) << r.to_string();
}

TEST(VerifyScheduleMutation, CorruptionsAreDetected) {
  const auto d = design::make_9_3_1();
  const DesignTheoretic scheme(d, true);
  const std::vector<BucketId> batch{0, 5, 11, 17, 23};
  auto good = retrieval::optimal_schedule(batch, scheme);
  ASSERT_TRUE(verify::check_schedule(batch, scheme, good));

  std::string why;
  // Wrong device: serve request 0 from a device outside its replica set.
  auto bad = good;
  const auto reps = scheme.replicas(batch[0]);
  for (DeviceId dev = 0; dev < scheme.devices(); ++dev) {
    if (std::find(reps.begin(), reps.end(), dev) == reps.end()) {
      bad.assignments[0].device = dev;
      break;
    }
  }
  EXPECT_FALSE(verify::check_schedule(batch, scheme, bad, &why));
  EXPECT_NE(why.find("non-replica"), std::string::npos) << why;

  // Round out of range.
  bad = good;
  bad.assignments[0].round = bad.rounds + 3;
  EXPECT_FALSE(verify::check_schedule(batch, scheme, bad, &why));

  // Understated rounds field.
  bad = good;
  bad.rounds += 1;
  EXPECT_FALSE(verify::check_schedule(batch, scheme, bad, &why));
  EXPECT_NE(why.find("deepest"), std::string::npos) << why;
}

TEST(VerifyScheduleMutation, DeviceCollisionDetected) {
  // Two requests for different buckets forced onto one device in round 0.
  const auto d = design::fano();
  const DesignTheoretic scheme(d, false);
  // Blocks 0 and 1 of the Fano plane share exactly one device.
  const auto a = scheme.replicas(0);
  const auto b = scheme.replicas(1);
  DeviceId shared = kInvalidDevice;
  for (const auto da : a) {
    if (std::find(b.begin(), b.end(), da) != b.end()) shared = da;
  }
  ASSERT_NE(shared, kInvalidDevice);
  retrieval::Schedule s;
  s.rounds = 1;
  s.assignments = {{shared, 0}, {shared, 0}};
  std::string why;
  const std::vector<BucketId> batch{0, 1};
  EXPECT_FALSE(verify::check_schedule(batch, scheme, s, &why));
  EXPECT_NE(why.find("two requests"), std::string::npos) << why;
}

TEST(VerifyGuaranteeMutation, BrokenDesignFailsTheBound) {
  // Pair (0,1) covered twice and only 4 devices: S(c=3, M=1) = 5 distinct
  // buckets cannot all land in one round.
  const design::BlockDesign bad(4, {{0, 1, 2}, {0, 1, 3}}, "bad-pair");
  verify::GuaranteeParams p;
  p.max_accesses = 1;
  const auto r = verify::verify_guarantee(bad, p);
  EXPECT_FALSE(r.passed()) << r.to_string();
}

// ------------------------------------------------ device-op re-simulation

/// Exchange-style replay with writes, a spike on every device, and a
/// permanent loss with hot-spare rebuild: every device op kind occurs.
/// No admission, so reads are served inside the spike (deterministic
/// admission would defer them past it).
struct ResimFixture {
  design::BlockDesign d = design::make_9_3_1();
  DesignTheoretic scheme{d, true};
  trace::Trace t;
  core::PipelineConfig cfg;
  verify::DeviceOpLog log;
  SimTime spike_start = 0;  // a 4x spike on every device covers
  SimTime spike_end = 0;    // [spike_start, spike_end)

  ResimFixture() {
    auto wp = trace::exchange_params(0.02, 2012);
    wp.write_fraction = 0.2;
    t = trace::generate_workload(wp);
    cfg.admission = core::AdmissionMode::kNone;
    const auto at = [&](std::size_t num) { return t.events[t.events.size() * num / 8].time; };
    spike_start = at(2);
    spike_end = at(4);
    for (DeviceId dev = 0; dev < scheme.devices(); ++dev) {
      cfg.faults.spikes.push_back(
          {.device = dev, .start = spike_start, .end = spike_end, .factor = 4.0});
    }
    cfg.faults.outages.push_back({.device = 3, .fail_at = at(3)});
    cfg.faults.rebuild.pages_per_second = 50000.0;
    (void)core::QosPipeline(scheme, cfg).run(t, &log);
  }

  [[nodiscard]] verify::ResimResult resim(const verify::DeviceOpLog& l) const {
    return verify::resimulate(scheme, cfg, t.duration() + cfg.qos_interval, l);
  }

  /// Rewrite op `k`'s span, and its served read's outcome with it, so only
  /// the re-simulation itself can notice.
  static void move_op(verify::DeviceOpLog& l, std::size_t k, SimTime start,
                      SimTime finish) {
    auto& op = l.ops[k];
    for (auto& r : l.reads) {
      if (op.kind == core::DeviceOpKind::kRead && r.request == op.request) {
        r.start = start;
        r.finish = finish;
      }
    }
    op.start = start;
    op.finish = finish;
  }
};

TEST(ResimOracle, EngineOpsResimulateExactly) {
  const ResimFixture f;
  std::size_t kinds[3] = {};
  for (const auto& op : f.log.ops) ++kinds[static_cast<std::size_t>(op.kind)];
  EXPECT_GT(kinds[0], 0u) << "no reads";
  EXPECT_GT(kinds[1], 0u) << "no write replicas";
  EXPECT_GT(kinds[2], 0u) << "no rebuild reads";
  const auto r = f.resim(f.log);
  EXPECT_EQ(r.ops, f.log.ops.size());
  EXPECT_TRUE(r.ok()) << r.mismatches << " mismatches; first: " << r.first;
}

TEST(ResimOracleMutation, OverlappingOpIsDetected) {
  const ResimFixture f;
  // The first op whose device already served one: start it 1 ns before
  // that predecessor finishes.
  std::vector<std::size_t> last(f.scheme.devices(), f.log.ops.size());
  auto bad = f.log;
  bool moved = false;
  for (std::size_t k = 0; k < bad.ops.size() && !moved; ++k) {
    const auto dev = bad.ops[k].device;
    if (last[dev] < bad.ops.size()) {
      const SimTime start = bad.ops[last[dev]].finish - 1;
      ResimFixture::move_op(bad, k, start,
                            start + bad.ops[k].finish - bad.ops[k].start);
      moved = true;
    }
    last[dev] = k;
  }
  ASSERT_TRUE(moved);
  const auto r = f.resim(bad);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.first.find("!= simulator"), std::string::npos) << r.first;
}

TEST(ResimOracleMutation, SpikeReadWithBaseServiceIsDetected) {
  const ResimFixture f;
  auto bad = f.log;
  bool moved = false;
  for (std::size_t k = 0; k < bad.ops.size() && !moved; ++k) {
    const auto& op = bad.ops[k];
    if (op.kind != core::DeviceOpKind::kRead || op.start < f.spike_start ||
        op.start >= f.spike_end) {
      continue;
    }
    ASSERT_EQ(op.finish - op.start, 4 * f.cfg.service_time);
    ResimFixture::move_op(bad, k, op.start, op.start + f.cfg.service_time);
    moved = true;
  }
  ASSERT_TRUE(moved);
  const auto r = f.resim(bad);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.first.find("!= simulator"), std::string::npos) << r.first;
}

// The --replay audit: one replay per {retrieval × admission × mapping ×
// scheduler} combination on a synthetic and an Exchange-style trace, plus
// two failure-window configs. One assertion per check, so a regression
// names the exact combination.
TEST(ResimOracle, AllModeCombinations) {
  const auto d = design::make_9_3_1();
  const DesignTheoretic scheme(d, true);
  const auto report = verify::verify_resimulation(scheme);
  for (const auto& check : report.checks()) {
    EXPECT_TRUE(check.passed) << check.name << ": " << check.detail;
  }
  EXPECT_EQ(report.checks().size(), 2u * 3u * 2u * 2u * 2u + 2u);
}

TEST(VerifyMiner, AprioriMatchesNaiveOnModelSlices) {
  const auto r = verify::verify_miner();
  EXPECT_TRUE(r.passed()) << r.to_string(true);
  EXPECT_EQ(r.checks().size(), 2u * 3u) << "two slices, supports 1..3";
}

TEST(FimOracleMutation, SupportOffByOneIsDetected) {
  const auto& slice = verify::model_slices().front();
  const auto pairs = fim::mine_pairs_apriori(slice.db, 1).pairs;
  ASSERT_FALSE(pairs.empty());
  std::string why;
  EXPECT_TRUE(verify::pairs_match(pairs, pairs, &why)) << why;
  auto bad = pairs;
  ++bad[bad.size() / 2].support;
  EXPECT_FALSE(verify::pairs_match(pairs, bad, &why));
  EXPECT_NE(why.find("pair " + std::to_string(bad.size() / 2)), std::string::npos) << why;
}

TEST(FimOracleMutation, MovedBlockIsDetected) {
  const auto d = design::make_13_3_1();
  const DesignTheoretic s(d, true);
  for (const auto& slice : verify::model_slices()) {
    const auto pairs = fim::mine_pairs_apriori(slice.db, 1).pairs;
    auto reference = verify::reference_placement(s, pairs);
    core::BlockMapper mapper(s);
    mapper.rebuild(pairs);
    const auto blocks = slice.db.items();
    std::string why;
    EXPECT_TRUE(verify::mapping_matches(reference, s.buckets(), mapper, blocks, &why))
        << slice.name << ": " << why;
    ASSERT_FALSE(reference.empty());
    auto& [block, bucket] = *reference.begin();
    bucket = static_cast<BucketId>((bucket + 1) % s.buckets());
    EXPECT_FALSE(verify::mapping_matches(reference, s.buckets(), mapper, blocks, &why))
        << slice.name;
    EXPECT_NE(why.find("block " + std::to_string(block)), std::string::npos) << why;
  }
}

// The --obs audit under plain ctest: every counter, latency histogram
// snapshot, windowed series point, SLO page and trace span of its replays
// (tenant, fault and over-budget legs included) against the outcomes, on
// the paper's primary design and on one with 13 devices.
void expect_observability_audit_passes(const design::BlockDesign& d) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "FLASHQOS_OBS=OFF";
  const DesignTheoretic scheme(d, true);
  const auto report = verify::verify_observability(scheme);
  for (const auto& check : report.checks()) {
    EXPECT_TRUE(check.passed) << check.name << ": " << check.detail;
  }
  EXPECT_GE(report.checks().size(), 100u);
}

TEST(ObsOracle, PrimaryDesignPassesEveryCheck) {
  expect_observability_audit_passes(design::make_9_3_1());
}

TEST(ObsOracle, ThirteenDeviceDesignPassesEveryCheck) {
  expect_observability_audit_passes(design::make_13_3_1());
}

// The --obs latency oracle: a replay's histogram, published from its
// single-writer tally at replay end, against a reference histogram given
// one record() per served read. Over budget (10 reads per interval on
// (9,3,1), S = 5, for 64 intervals, then idle) the e2e latencies spread
// past the exact tracker, so the bucket layout is what is compared.
struct LatencyFixture {
  LatencyFixture() {
    obs::MetricRegistry::global().reset();
    trace::SyntheticParams sp;
    sp.bucket_pool = scheme.buckets();
    sp.requests_per_interval = 10;
    sp.total_requests = 64 * 10;
    const auto r =
        core::QosPipeline(scheme, core::PipelineConfig{}).run(trace::generate_synthetic(sp));
    obs::LatencyHistogram ref;
    for (const auto& o : r.outcomes) {
      if (!o.failed && !o.is_write) ref.record(o.end_to_end());
    }
    want = ref.snapshot();
    const auto snap = obs::MetricRegistry::global().snapshot();
    if (const auto* h = snap.find_histogram("pipeline.e2e_ns")) got = *h;
  }

  const design::BlockDesign d = design::make_9_3_1();
  const DesignTheoretic scheme{d, true};
  obs::HistogramSnapshot got;
  obs::HistogramSnapshot want;
};

TEST(LatencyOracle, OverBudgetE2eMatchesOneRecordPerRead) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "FLASHQOS_OBS=OFF";
  const LatencyFixture f;
  EXPECT_FALSE(f.want.exact);
  EXPECT_EQ(verify::histogram_mismatch(f.got, f.want), "");
}

TEST(LatencyOracleMutation, BucketMovedToTheNextIndexIsDetected) {
  const LatencyFixture f;
  auto bad = f.want;
  ASSERT_FALSE(bad.buckets.empty());
  // The first bucket whose next index is empty moves there.
  std::size_t k = 0;
  while (k + 1 < bad.buckets.size() && bad.buckets[k + 1].lo == bad.buckets[k].hi) ++k;
  auto& b = bad.buckets[k];
  b.lo = b.hi;
  b.hi = obs::bucket_hi(obs::bucket_index(b.lo));
  const auto why = verify::histogram_mismatch(bad, f.want);
  EXPECT_NE(why.find("bucket " + std::to_string(k)), std::string::npos) << why;
}

TEST(LatencyOracleMutation, MinOffByOneIsDetected) {
  const LatencyFixture f;
  auto bad = f.want;
  ++bad.min;
  const auto why = verify::histogram_mismatch(bad, f.want);
  EXPECT_NE(why.find("min"), std::string::npos) << why;
}

}  // namespace
}  // namespace flashqos
