// Extension tests: mixed read/write workloads through the QoS pipeline and
// the flashsim write path.
#include <gtest/gtest.h>

#include "core/qos_pipeline.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "flashsim/flash_array.hpp"
#include "trace/workload.hpp"

namespace flashqos {
namespace {

using core::AdmissionMode;
using core::MappingMode;
using core::PipelineConfig;
using core::QosPipeline;
using core::RetrievalMode;
using decluster::DesignTheoretic;

const DesignTheoretic& scheme931() {
  static const auto d = design::make_9_3_1();
  static const DesignTheoretic s(d, true);
  return s;
}

TEST(FlashSimWrites, ProgramsAreSlowerThanReads) {
  flashsim::FlashArray a(1, std::make_shared<flashsim::FixedLatencyModel>(100, 700));
  a.submit({.id = 0, .device = 0, .submit_time = 0, .pages = 1, .is_write = false});
  a.submit({.id = 1, .device = 0, .submit_time = 0, .pages = 1, .is_write = true});
  a.run();
  const auto& c = a.completions();
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0].finish, 100);
  EXPECT_EQ(c[1].finish, 100 + 700);
}

trace::Trace rw_trace(std::vector<std::tuple<SimTime, DataBlockId, bool>> events) {
  trace::Trace t;
  t.report_interval = kSecond;
  for (const auto& [time, block, is_read] : events) {
    t.events.push_back({.time = time, .block = block, .device = 0,
                        .size_blocks = 1, .is_read = is_read});
  }
  return t;
}

TEST(PipelineWrites, WriteHitsEveryReplica) {
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kOnline;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  cfg.write_latency = 500 * kMicrosecond;
  QosPipeline pipe(scheme931(), cfg);
  const auto r = pipe.run(rw_trace({{0, 0, false}}));
  ASSERT_EQ(r.outcomes.size(), 1u);
  const auto& o = r.outcomes[0];
  EXPECT_TRUE(o.is_write);
  EXPECT_EQ(o.start, 0);
  // All three replicas are idle: programs run in parallel and the write
  // completes after one program time.
  EXPECT_EQ(o.finish, 500 * kMicrosecond);
  EXPECT_EQ(r.overall.writes, 1u);
  EXPECT_EQ(r.deadline_violations, 0u) << "writes are not read deadline misses";
}

TEST(PipelineWrites, ReadsDeferAroundWrites) {
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kOnline;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  cfg.write_latency = 10 * kBaseInterval;  // long program to force conflict
  QosPipeline pipe(scheme931(), cfg);
  // Write to bucket 0 occupies devices 0,1,2; a read of bucket 0 right
  // after has no idle replica and must defer until a program finishes.
  const auto r = pipe.run(rw_trace({{0, 0, false}, {1, 0, true}}));
  ASSERT_EQ(r.outcomes.size(), 2u);
  EXPECT_TRUE(r.outcomes[0].is_write);
  const auto& read = r.outcomes[1];
  EXPECT_FALSE(read.is_write);
  EXPECT_TRUE(read.deferred());
  EXPECT_GE(read.start, 10 * kBaseInterval) << "read waits out the programs";
  EXPECT_EQ(read.response(), kPageReadLatency)
      << "once admitted, the read still meets its guarantee";
  EXPECT_EQ(r.deadline_violations, 0u);
}

TEST(PipelineWrites, WritesBypassReadAdmission) {
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kOnline;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  cfg.write_latency = kPageReadLatency;
  QosPipeline pipe(scheme931(), cfg);
  // 5 reads (the full budget) plus 2 writes at the same instant: the
  // writes must not push reads over the admission limit.
  std::vector<std::tuple<SimTime, DataBlockId, bool>> events;
  events.emplace_back(0, 30, false);
  events.emplace_back(0, 33, false);
  for (DataBlockId b = 0; b < 5; ++b) events.emplace_back(0, b * 4, true);
  const auto r = pipe.run(rw_trace(events));
  std::size_t deferred_reads = 0;
  for (const auto& o : r.outcomes) {
    if (!o.is_write && o.deferred()) ++deferred_reads;
  }
  // Reads can defer because the writes occupy devices, but not because of
  // the S budget: at most the reads whose replicas all collide with
  // write-busy devices wait.
  EXPECT_EQ(r.overall.writes, 2u);
  EXPECT_EQ(r.deadline_violations, 0u);
}

TEST(PipelineWrites, WriteQueuesBehindEarlierDispatchedRead) {
  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kOnline;
  cfg.admission = AdmissionMode::kNone;
  cfg.mapping = MappingMode::kModulo;
  QosPipeline pipe(scheme931(), cfg);
  // Four reads of bucket 0 at t=0: three take the bucket's replica slots,
  // the fourth queues on device 0 for [L, 2L]. The write arrives while
  // that read is still waiting; devices serve FIFO, so the program must
  // queue behind it instead of jumping ahead.
  const auto r = pipe.run(rw_trace({{0, 0, true},
                                    {0, 0, true},
                                    {0, 0, true},
                                    {0, 0, true},
                                    {kMicrosecond, 0, false}}));
  ASSERT_EQ(r.outcomes.size(), 5u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.outcomes[i].path, core::RetrievalPath::kSlotMatched) << i;
    EXPECT_EQ(r.outcomes[i].finish, kPageReadLatency) << i;
  }
  const auto& queued = r.outcomes[3];
  EXPECT_EQ(queued.device, 0u);
  EXPECT_EQ(queued.start, kPageReadLatency);
  EXPECT_EQ(queued.finish, 2 * kPageReadLatency);
  EXPECT_TRUE(r.outcomes[4].is_write);
  EXPECT_EQ(r.outcomes[4].finish, 2 * kPageReadLatency + cfg.write_latency);
}

TEST(PipelineWrites, MixedWorkloadEndToEnd) {
  auto p = trace::exchange_params(0.25, 33);
  p.report_intervals = 12;
  p.write_fraction = 0.2;
  const auto t = trace::generate_workload(p);
  std::size_t trace_writes = 0;
  for (const auto& e : t.events) {
    if (!e.is_read) ++trace_writes;
  }
  ASSERT_GT(trace_writes, 0u);
  ASSERT_LT(trace_writes, t.events.size());

  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kOnline;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kFim;
  QosPipeline pipe(scheme931(), cfg);
  const auto r = pipe.run(t);
  EXPECT_EQ(r.overall.writes, trace_writes);
  EXPECT_EQ(r.deadline_violations, 0u)
      << "admitted reads keep the guarantee even with writes in the mix";
  EXPECT_GT(r.overall.avg_write_ms, 0.0);
  // Per-request conservation still holds.
  for (const auto& o : r.outcomes) {
    if (o.failed) continue;
    EXPECT_GE(o.start, o.dispatch);
    EXPECT_GT(o.finish, o.start);
  }
}

TEST(PipelineWrites, WriteFractionRaisesReadDeferral) {
  auto base = trace::exchange_params(0.25, 55);
  base.report_intervals = 12;
  auto heavy = base;
  heavy.write_fraction = 0.3;
  const auto t_ro = trace::generate_workload(base);
  const auto t_rw = trace::generate_workload(heavy);

  PipelineConfig cfg;
  cfg.retrieval = RetrievalMode::kOnline;
  cfg.admission = AdmissionMode::kDeterministic;
  cfg.mapping = MappingMode::kModulo;
  const auto r_ro = QosPipeline(scheme931(), cfg).run(t_ro);
  const auto r_rw = QosPipeline(scheme931(), cfg).run(t_rw);
  EXPECT_GT(r_rw.overall.pct_deferred, r_ro.overall.pct_deferred)
      << "programs occupy replicas, so more reads miss the idle window";
}

}  // namespace
}  // namespace flashqos
