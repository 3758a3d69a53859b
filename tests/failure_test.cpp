// Failure injection: degraded-mode retrieval and the pipeline under device
// outages. Replication is the paper's QoS mechanism *and* its fault
// tolerance; these tests pin down what survives a failure.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/qos_pipeline.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "retrieval/dtr.hpp"
#include "retrieval/maxflow.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace flashqos {
namespace {

using core::AdmissionMode;
using core::MappingMode;
using core::PipelineConfig;
using core::QosPipeline;
using core::RetrievalMode;
using decluster::DesignTheoretic;
using fault::DeviceFailure;

const DesignTheoretic& scheme931() {
  static const auto d = design::make_9_3_1();
  static const DesignTheoretic s(d, true);
  return s;
}

std::vector<bool> all_up_except(std::uint32_t devices,
                                std::initializer_list<DeviceId> down) {
  std::vector<bool> up(devices, true);
  for (const auto d : down) up[d] = false;
  return up;
}

TEST(DegradedRetrieval, NeverUsesDownDevices) {
  const auto& scheme = scheme931();
  const auto available = all_up_except(9, {0, 4});
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t k = 1 + rng.below(12);
    std::vector<BucketId> batch;
    for (const auto b : rng.sample_without_replacement(scheme.buckets(), k)) {
      batch.push_back(static_cast<BucketId>(b));
    }
    const auto s = retrieval::optimal_schedule(batch, scheme, available);
    ASSERT_TRUE(s.has_value());
    for (const auto& a : s->assignments) {
      EXPECT_NE(a.device, 0u);
      EXPECT_NE(a.device, 4u);
    }
    EXPECT_TRUE(valid_schedule(batch, scheme, *s));
  }
}

TEST(DegradedRetrieval, NulloptWhenAllReplicasDown) {
  const auto& scheme = scheme931();
  // Bucket 0 is the paper's block (0,1,2); killing those three devices
  // leaves it unreachable.
  const auto available = all_up_except(9, {0, 1, 2});
  const std::vector<BucketId> batch{0};
  EXPECT_FALSE(retrieval::optimal_schedule(batch, scheme, available).has_value());
  // A bucket with one live replica still schedules.
  const std::vector<BucketId> ok{3};  // block (0,3,6): devices 3 and 6 live
  const auto s = retrieval::optimal_schedule(ok, scheme, available);
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->assignments[0].device == 3 || s->assignments[0].device == 6);
}

TEST(DegradedRetrieval, EmptyMaskMeansAllUp) {
  const auto& scheme = scheme931();
  const std::vector<BucketId> batch{0, 1, 2};
  const auto degraded = retrieval::retrieve(batch, scheme, std::vector<bool>{});
  ASSERT_TRUE(degraded.has_value());
  EXPECT_EQ(degraded->rounds, retrieval::retrieve(batch, scheme).rounds);
}

// Degraded guarantee. With one failed device the surviving layout keeps
// λ <= 1 *across distinct design blocks*, so batches touching each block at
// most once satisfy the (c-1)-copy guarantee (c-2)M² + (c-1)M exactly.
// Rotations of one block collapse onto the block's surviving pair, so
// arbitrary distinct-bucket batches can cost one extra round — and never
// more. Both facts verified per failed device.
class DegradedGuarantee : public ::testing::TestWithParam<DeviceId> {};

TEST_P(DegradedGuarantee, DistinctBlockBatchesKeepTwoCopyGuarantee) {
  const auto& scheme = scheme931();
  const DeviceId failed = GetParam();
  const auto available = all_up_except(9, {failed});
  Rng rng(100 + failed);
  const auto blocks = scheme931().buckets() / 3;  // 12 design blocks
  for (std::uint32_t m = 1; m <= 2; ++m) {
    const auto limit = design::guarantee_buckets(2, m);  // c' = c - 1 = 2
    for (int trial = 0; trial < 150; ++trial) {
      const std::size_t k = 1 + rng.below(std::min<std::uint64_t>(limit, blocks));
      std::vector<BucketId> batch;
      for (const auto b : rng.sample_without_replacement(blocks, k)) {
        batch.push_back(static_cast<BucketId>(b * 3 + rng.below(3)));
      }
      const auto s = retrieval::optimal_schedule(batch, scheme, available);
      ASSERT_TRUE(s.has_value());
      EXPECT_LE(s->rounds, m) << "failed=" << failed << " k=" << k;
    }
  }
}

TEST_P(DegradedGuarantee, ArbitraryBatchesDegradeByAtMostOneRound) {
  const auto& scheme = scheme931();
  const DeviceId failed = GetParam();
  const auto available = all_up_except(9, {failed});
  Rng rng(200 + failed);
  for (std::uint32_t m = 1; m <= 2; ++m) {
    const auto limit = design::guarantee_buckets(2, m);
    for (int trial = 0; trial < 150; ++trial) {
      const std::size_t k = 1 + rng.below(limit);
      std::vector<BucketId> batch;
      for (const auto b : rng.sample_without_replacement(scheme.buckets(), k)) {
        batch.push_back(static_cast<BucketId>(b));
      }
      const auto s = retrieval::optimal_schedule(batch, scheme, available);
      ASSERT_TRUE(s.has_value());
      EXPECT_LE(s->rounds, m + 1) << "failed=" << failed << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EveryDevice, DegradedGuarantee,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

trace::Trace boundary_trace(std::size_t intervals, std::uint32_t per_interval,
                            std::uint64_t seed) {
  return trace::generate_synthetic({.bucket_pool = 36,
                                    .interval = kBaseInterval,
                                    .requests_per_interval = per_interval,
                                    .total_requests = intervals * per_interval,
                                    .seed = seed});
}

TEST(PipelineFailure, TransientOutageNeverRoutesToDownDevice) {
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kOnline;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  const SimTime fail_at = 50 * kBaseInterval;
  const SimTime recover_at = 150 * kBaseInterval;
  cfg.faults.outages = {{.device = 3, .fail_at = fail_at, .recover_at = recover_at}};
  QosPipeline pipe(scheme931(), cfg);
  const auto r = pipe.run(boundary_trace(300, 4, 9));

  bool used_before = false, used_after = false;
  for (const auto& o : r.outcomes) {
    if (o.failed) continue;
    if (o.device == 3) {
      EXPECT_TRUE(o.start < fail_at || o.start >= recover_at)
          << "request started on device 3 during its outage";
      used_before |= o.start < fail_at;
      used_after |= o.start >= recover_at;
    }
  }
  EXPECT_TRUE(used_before) << "device 3 should serve before the outage";
  EXPECT_TRUE(used_after) << "device 3 should serve after recovery";
  EXPECT_EQ(r.overall.failed, 0u) << "transient outage loses nothing";
  EXPECT_EQ(r.deadline_violations, 0u)
      << "deterministic admission keeps the guarantee in degraded mode";
}

TEST(PipelineFailure, PermanentTripleFailureLosesOnlyDeadBuckets) {
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kOnline;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  // Devices 0,1,2 die immediately and never recover: buckets 0,1,2 (the
  // rotations of block (0,1,2)) become unreachable; every other bucket
  // keeps at least one live replica.
  cfg.faults.outages = {{.device = 0, .fail_at = 0},
                  {.device = 1, .fail_at = 0},
                  {.device = 2, .fail_at = 0}};
  QosPipeline pipe(scheme931(), cfg);
  const auto t = boundary_trace(200, 3, 11);
  const auto r = pipe.run(t);

  std::size_t expected_failed = 0;
  for (const auto& e : t.events) {
    if (e.block <= 2) ++expected_failed;  // modulo map: bucket == block here
  }
  EXPECT_EQ(r.overall.failed, expected_failed);
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    EXPECT_EQ(r.outcomes[i].failed, t.events[i].block <= 2) << i;
  }
  EXPECT_EQ(r.deadline_violations, 0u);
}

TEST(PipelineFailure, RecoveryWaitersDispatchAfterRecovery) {
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kOnline;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  const SimTime recover_at = 10 * kBaseInterval;
  cfg.faults.outages = {{.device = 0, .fail_at = 0, .recover_at = recover_at},
                  {.device = 1, .fail_at = 0, .recover_at = recover_at},
                  {.device = 2, .fail_at = 0, .recover_at = recover_at}};
  QosPipeline pipe(scheme931(), cfg);
  // A single request for bucket 0 at t = 0: all replicas down, but they
  // recover, so the request waits and then completes.
  trace::Trace t;
  t.report_interval = kSecond;
  t.events = {{.time = 0, .block = 0, .device = 0}};
  const auto r = pipe.run(t);
  ASSERT_EQ(r.outcomes.size(), 1u);
  EXPECT_FALSE(r.outcomes[0].failed);
  EXPECT_GE(r.outcomes[0].dispatch, recover_at);
  EXPECT_TRUE(r.outcomes[0].deferred());
  EXPECT_EQ(r.overall.failed, 0u);
}

TEST(PipelineFailure, AlignedModeAlsoDegrades) {
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kIntervalAligned;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  cfg.faults.outages = {{.device = 5, .fail_at = 0}};
  QosPipeline pipe(scheme931(), cfg);
  const auto r = pipe.run(boundary_trace(200, 3, 13));
  for (const auto& o : r.outcomes) {
    if (!o.failed) {
      EXPECT_NE(o.device, 5u);
    }
  }
  EXPECT_EQ(r.overall.failed, 0u);  // single failure: every bucket survives
}

TEST(PipelineFailure, OutageIncreasesDeferralNotViolations) {
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kOnline;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  QosPipeline healthy(scheme931(), cfg);
  cfg.faults.outages = {{.device = 0, .fail_at = 0},
                  {.device = 4, .fail_at = 0},
                  {.device = 8, .fail_at = 0}};
  QosPipeline degraded(scheme931(), cfg);
  const auto t = boundary_trace(500, 5, 17);
  const auto r_h = healthy.run(t);
  const auto r_d = degraded.run(t);
  EXPECT_EQ(r_h.deadline_violations, 0u);
  EXPECT_EQ(r_d.deadline_violations, 0u)
      << "degraded mode trades throughput, never the guarantee";
  EXPECT_GT(r_d.overall.deferred, r_h.overall.deferred)
      << "fewer live devices must defer more at the same load";
}

TEST(PipelineFailure, PrimaryOnlyBaselineFailsOverToLiveReplica) {
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kOnline;
  cfg.admission = AdmissionMode::kNone;
  cfg.mapping = MappingMode::kModulo;
  cfg.scheduler = core::SchedulerMode::kPrimaryOnly;
  cfg.faults.outages = {{.device = 0, .fail_at = 0}};
  QosPipeline pipe(scheme931(), cfg);
  trace::Trace t;
  t.report_interval = kSecond;
  // Bucket 0's primary is device 0 (down); the degraded read must use the
  // next listed copy (device 1).
  t.events = {{.time = 0, .block = 0, .device = 0}};
  const auto r = pipe.run(t);
  EXPECT_EQ(r.outcomes[0].device, 1u);
  EXPECT_FALSE(r.outcomes[0].failed);
}

}  // namespace
}  // namespace flashqos
