// Tests for the service facade (service::PipelineService): the embedding
// API is result-identical to constructing QosPipeline directly, the live
// API serves a submitted stream bit-identically to an in-process replay,
// the ingestion-floor clamp and tenant-fold accounting work, flush()
// releases verdicts mid-session (the marker-carried frontier), drain is
// idempotent, and verdicts reach a batch sink once each, in order, with a
// bounded number of hand-offs per session.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/qos_pipeline.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "obs/metrics.hpp"
#include "service/pipeline_service.hpp"
#include "trace/cursor.hpp"
#include "trace/synthetic.hpp"
#include "verify/result_compare.hpp"

namespace flashqos::service {
namespace {

trace::Trace small_trace() {
  trace::SyntheticParams p;
  p.bucket_pool = 36;
  p.requests_per_interval = 4;
  p.total_requests = 400;
  p.seed = 11;
  return trace::generate_synthetic(p);
}

core::PipelineConfig basic_config() {
  core::PipelineConfig cfg;
  cfg.retrieval = core::RetrievalMode::kOnline;
  cfg.admission = core::AdmissionMode::kDeterministic;
  cfg.mapping = core::MappingMode::kModulo;
  return cfg;
}

ServiceOptions options_for(const trace::Trace& t) {
  ServiceOptions so;
  so.pipeline = basic_config();
  so.meta.name = t.name;
  so.meta.volumes = t.volumes;
  so.meta.report_interval = t.report_interval;
  so.keep_intervals = true;
  return so;
}

/// Collects Served verdicts; on_served runs on the service thread, reads
/// happen after drain() (or under the lock for the mid-session test).
struct CollectSink final : ServedSink {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Served> served;

  void on_served(const Served& s) override {
    const std::lock_guard<std::mutex> lock(mutex);
    served.push_back(s);
    cv.notify_all();
  }

  std::size_t count() {
    const std::lock_guard<std::mutex> lock(mutex);
    return served.size();
  }
};

/// Overrides on_served_batch: the service must hand every verdict over
/// through it, never through on_served directly.
struct BatchSink final : ServedSink {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::vector<Served>> batches;
  std::atomic<bool> per_verdict_call{false};

  void on_served(const Served& /*s*/) override {
    per_verdict_call.store(true, std::memory_order_relaxed);
  }

  void on_served_batch(std::span<const Served> batch) override {
    const std::lock_guard<std::mutex> lock(mutex);
    batches.emplace_back(batch.begin(), batch.end());
    cv.notify_all();
  }
};

std::uint64_t served_batches_counter() {
  const auto snap = obs::MetricRegistry::global().snapshot();
  const auto* c = snap.find_counter("service.served_batches");
  return c != nullptr ? c->value : 0;
}

TEST(PipelineService, RunMatchesDirectPipeline) {
  const auto d = design::make_9_3_1();
  const decluster::DesignTheoretic scheme(d, true);
  const auto t = small_trace();

  core::QosPipeline direct(scheme, basic_config());
  const auto want = direct.run(t);
  const auto got = PipelineService(scheme, options_for(t)).run(t);

  ASSERT_EQ(want.outcomes.size(), got.outcomes.size());
  for (std::size_t i = 0; i < want.outcomes.size(); ++i) {
    EXPECT_EQ(want.outcomes[i].finish, got.outcomes[i].finish) << i;
    EXPECT_EQ(want.outcomes[i].device, got.outcomes[i].device) << i;
  }
  EXPECT_EQ(want.deadline_violations, got.deadline_violations);
  EXPECT_EQ(want.overall.avg_response_ms, got.overall.avg_response_ms);
  EXPECT_EQ(want.overall.max_response_ms, got.overall.max_response_ms);
  ASSERT_EQ(want.intervals.size(), got.intervals.size());
}

TEST(PipelineService, RunStreamMatchesRun) {
  const auto d = design::make_9_3_1();
  const decluster::DesignTheoretic scheme(d, true);
  const auto t = small_trace();

  PipelineService svc(scheme, options_for(t));
  const auto want = svc.run(t);
  trace::VectorCursor cursor(t);
  const auto got = svc.run_stream(cursor);
  std::string why;
  EXPECT_TRUE(verify::stream_result_matches(want, got, &why)) << why;
}

TEST(PipelineService, LiveSubmitIsIdenticalToInProcessReplay) {
  const auto d = design::make_9_3_1();
  const decluster::DesignTheoretic scheme(d, true);
  const auto t = small_trace();

  const auto want = PipelineService(scheme, options_for(t)).run(t);

  PipelineService svc(scheme, options_for(t));
  CollectSink sink;
  ASSERT_TRUE(svc.start(sink));
  EXPECT_FALSE(svc.start(sink));  // second start refused
  // Submit in uneven batches to exercise the batching seams.
  std::vector<std::uint64_t> tags(t.events.size());
  for (std::size_t i = 0; i < tags.size(); ++i) tags[i] = i;
  std::size_t off = 0;
  std::size_t step = 1;
  while (off < t.events.size()) {
    const std::size_t n = std::min(step, t.events.size() - off);
    ASSERT_TRUE(svc.submit(7, {t.events.data() + off, n},
                           {tags.data() + off, n}));
    off += n;
    step = step * 2 + 1;
  }
  const auto got = svc.drain();

  EXPECT_EQ(svc.submitted_events(), t.events.size());
  EXPECT_EQ(svc.clamped_events(), 0u);  // in-order stream never clamps
  std::string why;
  EXPECT_TRUE(verify::stream_result_matches(want, got, &why)) << why;

  ASSERT_EQ(sink.served.size(), want.outcomes.size());
  for (std::size_t i = 0; i < sink.served.size(); ++i) {
    const auto& s = sink.served[i];
    EXPECT_EQ(s.seq, i);
    EXPECT_EQ(s.conn, 7u);
    EXPECT_EQ(s.tag, i);
    EXPECT_EQ(s.out.arrival, want.outcomes[i].arrival) << i;
    EXPECT_EQ(s.out.dispatch, want.outcomes[i].dispatch) << i;
    EXPECT_EQ(s.out.start, want.outcomes[i].start) << i;
    EXPECT_EQ(s.out.finish, want.outcomes[i].finish) << i;
    EXPECT_EQ(s.out.device, want.outcomes[i].device) << i;
    EXPECT_EQ(s.out.path, want.outcomes[i].path) << i;
  }
}

TEST(PipelineService, LateArrivalsClampToTheIngestionFloor) {
  const auto d = design::make_9_3_1();
  const decluster::DesignTheoretic scheme(d, true);
  ServiceOptions so;
  so.pipeline = basic_config();
  so.meta.name = "clamp";
  PipelineService svc(scheme, so);
  CollectSink sink;
  ASSERT_TRUE(svc.start(sink));

  trace::TraceEvent late;
  late.block = 1;
  late.time = from_ms(2.0);
  const std::uint64_t tag0 = 0;
  ASSERT_TRUE(svc.submit(1, {&late, 1}, {&tag0, 1}));
  late.block = 2;
  late.time = from_ms(1.0);  // below the floor: treated as arriving now
  const std::uint64_t tag1 = 1;
  ASSERT_TRUE(svc.submit(1, {&late, 1}, {&tag1, 1}));
  (void)svc.drain();

  EXPECT_EQ(svc.clamped_events(), 1u);
  EXPECT_EQ(svc.floor(), from_ms(2.0));
  ASSERT_EQ(sink.served.size(), 2u);
  EXPECT_EQ(sink.served[0].out.arrival, from_ms(2.0));
  EXPECT_EQ(sink.served[1].out.arrival, from_ms(2.0));  // clamped up
  EXPECT_EQ(sink.served[1].ev.time, from_ms(2.0));
}

TEST(PipelineService, OutOfRangeTenantsFoldToClassZero) {
  const auto d = design::make_9_3_1();
  const decluster::DesignTheoretic scheme(d, true);
  ServiceOptions so;
  so.pipeline = basic_config();
  so.meta.name = "folds";
  PipelineService svc(scheme, so);
  CollectSink sink;
  ASSERT_TRUE(svc.start(sink));

  trace::TraceEvent ev;
  ev.block = 3;
  ev.tenant = 99;  // no tenant table configured: only class 0 exists
  const std::uint64_t tag = 0;
  ASSERT_TRUE(svc.submit(1, {&ev, 1}, {&tag, 1}));
  (void)svc.drain();

  EXPECT_EQ(svc.tenant_folds(), 1u);
  ASSERT_EQ(sink.served.size(), 1u);
  EXPECT_EQ(sink.served[0].ev.tenant, 0u);
  EXPECT_EQ(sink.served[0].out.tenant, 0u);
}

TEST(PipelineService, DrainIsIdempotentAndSubmitAfterDrainRefused) {
  const auto d = design::make_9_3_1();
  const decluster::DesignTheoretic scheme(d, true);
  ServiceOptions so;
  so.pipeline = basic_config();
  so.meta.name = "drain";
  PipelineService svc(scheme, so);
  CollectSink sink;
  ASSERT_TRUE(svc.start(sink));

  trace::TraceEvent ev;
  ev.block = 5;
  const std::uint64_t tag = 0;
  ASSERT_TRUE(svc.submit(1, {&ev, 1}, {&tag, 1}));
  const auto first = svc.drain();
  const auto second = svc.drain();
  EXPECT_EQ(first.requests, 1u);
  EXPECT_EQ(second.requests, first.requests);
  EXPECT_EQ(second.overall.avg_response_ms, first.overall.avg_response_ms);

  EXPECT_FALSE(svc.accepting());
  EXPECT_FALSE(svc.submit(1, {&ev, 1}, {&tag, 1}));
  EXPECT_EQ(svc.submitted_events(), 1u);  // the refused batch was dropped
}

TEST(PipelineService, FlushReleasesVerdictsMidSession) {
  // The marker-carried frontier: flush(floor) must let everything strictly
  // below the floor dispatch and answer while the stream stays open — no
  // drain, no further submits. A read is final when it dispatches, so a
  // floor 1 ns past its arrival is enough, well before its finish.
  const auto d = design::make_9_3_1();
  const decluster::DesignTheoretic scheme(d, true);
  trace::TraceEvent ev;
  ev.block = 9;
  ev.time = 0;
  for (const SimTime floor : {basic_config().qos_interval * 4, ev.time + 1}) {
    SCOPED_TRACE("floor " + std::to_string(floor));
    ServiceOptions so;
    so.pipeline = basic_config();
    so.meta.name = "flush";
    PipelineService svc(scheme, so);
    CollectSink sink;
    ASSERT_TRUE(svc.start(sink));

    const std::uint64_t tag = 42;
    ASSERT_TRUE(svc.submit(1, {&ev, 1}, {&tag, 1}));
    svc.flush(floor);

    {
      std::unique_lock<std::mutex> lock(sink.mutex);
      const bool served = sink.cv.wait_for(
          lock, std::chrono::seconds(10), [&] { return !sink.served.empty(); });
      ASSERT_TRUE(served) << "flush did not release the verdict";
      EXPECT_EQ(sink.served[0].tag, 42u);
    }
    EXPECT_TRUE(svc.accepting()) << "session must still be open";
    (void)svc.drain();
    EXPECT_EQ(sink.count(), 1u);
  }
}

TEST(PipelineService, BatchSinkSeesEveryVerdictOnceInOrder) {
  // A small batch_size makes the staging cap hand over mid-drain too.
  const auto d = design::make_9_3_1();
  const decluster::DesignTheoretic scheme(d, true);
  const auto t = small_trace();
  const auto want = PipelineService(scheme, options_for(t)).run(t);

  auto so = options_for(t);
  so.batch_size = 16;
  PipelineService svc(scheme, so);
  BatchSink sink;
  ASSERT_TRUE(svc.start(sink));
  std::vector<std::uint64_t> tags(t.events.size());
  for (std::size_t i = 0; i < tags.size(); ++i) tags[i] = 1000 + i;
  for (std::size_t off = 0, step = 1; off < t.events.size(); step = step * 2 + 1) {
    const std::size_t n = std::min(step, t.events.size() - off);
    ASSERT_TRUE(svc.submit(3, {t.events.data() + off, n}, {tags.data() + off, n}));
    off += n;
    if (off < t.events.size()) svc.flush(t.events[off].time);
  }
  (void)svc.drain();

  EXPECT_FALSE(sink.per_verdict_call.load());
  std::uint64_t next = 0;
  for (const auto& batch : sink.batches) {
    EXPECT_FALSE(batch.empty());
    EXPECT_LE(batch.size(), so.batch_size);
    for (const auto& s : batch) {
      ASSERT_EQ(s.seq, next) << "seqs must be contiguous across batches";
      EXPECT_EQ(s.conn, 3u);
      EXPECT_EQ(s.tag, 1000 + next);
      EXPECT_EQ(s.out.finish, want.outcomes[next].finish) << next;
      EXPECT_EQ(s.out.device, want.outcomes[next].device) << next;
      ++next;
    }
  }
  EXPECT_EQ(next, want.outcomes.size());
}

TEST(PipelineService, FlushReleasesVerdictThroughABatch) {
  const auto d = design::make_9_3_1();
  const decluster::DesignTheoretic scheme(d, true);
  ServiceOptions so;
  so.pipeline = basic_config();
  so.meta.name = "flush-batch";
  PipelineService svc(scheme, so);
  BatchSink sink;
  ASSERT_TRUE(svc.start(sink));

  trace::TraceEvent ev;
  ev.block = 4;
  const std::uint64_t tag = 42;
  ASSERT_TRUE(svc.submit(1, {&ev, 1}, {&tag, 1}));
  svc.flush(ev.time + 1);
  {
    std::unique_lock<std::mutex> lock(sink.mutex);
    const bool served = sink.cv.wait_for(lock, std::chrono::seconds(10),
                                         [&] { return !sink.batches.empty(); });
    ASSERT_TRUE(served) << "flush did not hand the verdict over";
    ASSERT_EQ(sink.batches[0].size(), 1u);
    EXPECT_EQ(sink.batches[0][0].tag, 42u);
  }
  EXPECT_TRUE(svc.accepting()) << "session must still be open";
  (void)svc.drain();
  EXPECT_EQ(sink.batches.size(), 1u);
  EXPECT_FALSE(sink.per_verdict_call.load());
}

TEST(PipelineService, HandOffsAreBoundedBySubmitsAndFlushes) {
  // Each submit is one ingress item and fill() consumes at most one item
  // per call, handing over what the drain before it folded. So a session
  // costs at most one hand-off per submit or flush, plus the last one after
  // the stream ends (no drain step here folds batch_size verdicts). A
  // service that hands over per outcome makes 6400.
  const auto d = design::make_9_3_1();
  const decluster::DesignTheoretic scheme(d, true);
  trace::SyntheticParams p;
  p.bucket_pool = 36;
  p.requests_per_interval = 4;
  p.total_requests = 6400;
  p.seed = 5;
  const auto t = trace::generate_synthetic(p);

  PipelineService svc(scheme, options_for(t));
  BatchSink sink;
  const std::uint64_t counter_before = served_batches_counter();
  ASSERT_TRUE(svc.start(sink));
  std::vector<std::uint64_t> tags(t.events.size());
  for (std::size_t i = 0; i < tags.size(); ++i) tags[i] = i;
  std::size_t submits = 0;
  std::size_t flushes = 0;
  for (std::size_t off = 0; off < t.events.size(); off += 64) {
    const std::size_t n = std::min<std::size_t>(64, t.events.size() - off);
    ASSERT_TRUE(svc.submit(1, {t.events.data() + off, n}, {tags.data() + off, n}));
    ++submits;
    if (submits % 10 == 0 && off + n < t.events.size()) {
      svc.flush(t.events[off + n].time);
      ++flushes;
    }
  }
  (void)svc.drain();

  std::size_t verdicts = 0;
  for (const auto& b : sink.batches) verdicts += b.size();
  EXPECT_EQ(verdicts, t.events.size());
  EXPECT_GE(sink.batches.size(), 1u);
  EXPECT_LE(sink.batches.size(), submits + flushes + 1)
      << submits << " submits, " << flushes << " flushes";
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(served_batches_counter() - counter_before, sink.batches.size());
  }
}

TEST(PipelineService, BuildServiceFromConfig) {
  std::istringstream in(R"(
[design]
name = (9,3,1)
[pipeline]
retrieval = online
admission = deterministic
[service]
batch = 256
ingress_batches = 8
)");
  const auto setup = build_service(Config::parse(in));
  ASSERT_NE(setup.scheme, nullptr);
  EXPECT_EQ(setup.scheme->devices(), 9u);
  EXPECT_EQ(setup.options.batch_size, 256u);
  EXPECT_EQ(setup.options.ingress_batches, 8u);
}

/// What build_service() throws for a (9,3,1) config with `extra` appended;
/// empty when it builds.
std::string service_error(const std::string& extra) {
  std::istringstream in("[design]\nname = (9,3,1)\n" + extra);
  try {
    (void)build_service(Config::parse(in));
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

/// The error names the key and its value.
void expect_rejected(const std::string& extra, const std::string& key,
                     const std::string& value) {
  const auto err = service_error(extra);
  EXPECT_NE(err.find(key), std::string::npos) << extra << " -> '" << err << "'";
  EXPECT_NE(err.find(value), std::string::npos) << extra << " -> '" << err << "'";
}

// A zero batch used to abort the service thread after the daemon printed
// its listen line; -1 wrapped to a huge size_t and threw length_error.
TEST(PipelineService, BuildServiceRejectsCountsBelowOne) {
  expect_rejected("[service]\nbatch = 0\n", "batch", "0");
  expect_rejected("[service]\nbatch = -1\n", "batch", "-1");
  expect_rejected("[service]\ningress_batches = 0\n", "ingress_batches", "0");
  EXPECT_EQ(service_error("[service]\nbatch = 1\ningress_batches = 1\n"), "");
}

TEST(PipelineService, BuildServiceRejectsBadDurations) {
  for (const std::string key : {"report_interval_ms", "horizon_ms"}) {
    for (const std::string value : {"-1", "-0.5", "nan", "inf", "1e300"}) {
      expect_rejected("[service]\n" + key + " = " + value + "\n", key, value);
    }
  }
  std::istringstream in(
      "[design]\nname = (9,3,1)\n[service]\nreport_interval_ms = 0\n"
      "horizon_ms = 2.5\n");
  const auto setup = build_service(Config::parse(in));
  EXPECT_EQ(setup.options.meta.report_interval, 0);
  EXPECT_EQ(setup.options.horizon, 2'500'000);
}

// A fault plan compiles against the horizon before the live stream's
// length is known; without one the service thread used to abort on the
// first submitted event.
TEST(PipelineService, BuildServiceNeedsAHorizonForAFaultPlan) {
  const std::string plan = "[faults]\nfail = 3 1.0 5.0\n";
  expect_rejected(plan, "horizon_ms", "(unset)");
  expect_rejected(plan + "[service]\nhorizon_ms = 0\n", "horizon_ms", "0");
  EXPECT_EQ(service_error(plan + "[service]\nhorizon_ms = 100\n"), "");
}

}  // namespace
}  // namespace flashqos::service
