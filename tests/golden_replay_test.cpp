// Golden-trace regression suite: canned DiskSim-ASCII fixtures under
// tests/golden/ replayed through the pipeline, with the full formatted
// metric snapshot diffed byte-for-byte against a committed .expected.txt.
// Any change to admission, scheduling, mapping, or the flash timing model
// shows up as a readable text diff instead of a silent drift.
//
// Regenerating after an *intended* behaviour change:
//   FLASHQOS_GOLDEN_REGEN=1 ./build/tests/golden_replay_test
// rewrites the .expected.txt files in the source tree; review the diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>

#include "core/qos_pipeline.hpp"
#include "core/sampler.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "trace/cursor.hpp"
#include "trace/disksim_format.hpp"
#include "trace/synthetic.hpp"
#include "util/time.hpp"
#include "verify/resim_oracle.hpp"

#ifndef FLASHQOS_GOLDEN_DIR
#error "build must define FLASHQOS_GOLDEN_DIR"
#endif

using namespace flashqos;

namespace {

const decluster::DesignTheoretic& scheme931() {
  static const auto d = design::make_9_3_1();
  static const decluster::DesignTheoretic s(d, true);
  return s;
}

// Every golden replay also re-simulates its device ops on flashsim's
// FlashArray (verify/resim_oracle.hpp): each op must keep its start and
// finish, and each served read must be exactly one read op.
core::PipelineResult replay(const core::PipelineConfig& cfg, const trace::Trace& t) {
  verify::DeviceOpLog log;
  auto result = core::QosPipeline(scheme931(), cfg).run(t, &log);
  const auto resim =
      verify::resimulate(scheme931(), cfg, t.duration() + cfg.qos_interval, log);
  EXPECT_GT(resim.ops, 0u);
  EXPECT_TRUE(resim.ok()) << resim.mismatches << " re-simulation mismatches; first: "
                          << resim.first;
  return result;
}

trace::Trace load_trace(const std::string& stem, SimTime report_interval) {
  const std::string path = std::string(FLASHQOS_GOLDEN_DIR) + "/" + stem + ".trace";
  std::ifstream in(path);
  if (!in) ADD_FAILURE() << "cannot open fixture " << path;
  return trace::read_disksim_ascii(in, stem, 1, report_interval);
}

// Deterministic plain-text rendering of a PipelineResult. Fixed six-decimal
// precision: enough to print kPageReadLatency (0.132507 ms) exactly, and
// the engines guarantee bit-identical doubles so the text is stable.
std::string format_result(const core::PipelineResult& r) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(6);
  const auto row = [&out](const char* tag, const core::IntervalReport& v) {
    out << tag << " requests=" << v.requests << " avg_resp=" << v.avg_response_ms
        << " max_resp=" << v.max_response_ms << " avg_e2e=" << v.avg_e2e_ms
        << " max_e2e=" << v.max_e2e_ms << " deferred=" << v.deferred
        << " pct_deferred=" << v.pct_deferred << " avg_delay=" << v.avg_delay_ms
        << " fim_match=" << v.fim_match_rate << " failed=" << v.failed
        << " writes=" << v.writes << " avg_write=" << v.avg_write_ms << "\n";
  };
  for (std::size_t i = 0; i < r.intervals.size(); ++i) {
    out << "interval " << std::setw(3) << i;
    row("", r.intervals[i]);
  }
  out << "overall    ";
  row("", r.overall);
  out << "deadline_violations=" << r.deadline_violations << "\n";
  // Multi-tenant runs append one tally line per tenant; single-tenant
  // snapshots are byte-identical to builds without the tenant subsystem.
  for (std::size_t k = 0; k < r.tenant_usage.size(); ++k) {
    const auto& u = r.tenant_usage[k];
    out << "tenant " << k << " arrivals=" << u.arrivals
        << " admitted=" << u.admitted << " shed=" << u.shed
        << " marked=" << u.marked << " max_depth=" << u.max_depth << "\n";
  }
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return in ? ss.str() : std::string();
}

// Compare against the committed snapshot, or rewrite it under
// FLASHQOS_GOLDEN_REGEN=1. On mismatch, report the first diverging line.
void check_golden(const std::string& stem, const std::string& actual) {
  const std::string path =
      std::string(FLASHQOS_GOLDEN_DIR) + "/" + stem + ".expected.txt";
  if (std::getenv("FLASHQOS_GOLDEN_REGEN") != nullptr) {
    std::ofstream out(path);
    out << actual;
    ASSERT_TRUE(out.good()) << "cannot regenerate " << path;
    GTEST_LOG_(INFO) << "regenerated " << path;
    return;
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty())
      << path << " missing; run with FLASHQOS_GOLDEN_REGEN=1 to create it";
  if (actual == expected) return;
  std::istringstream a(actual), e(expected);
  std::string al, el;
  std::size_t line = 1;
  while (std::getline(e, el)) {
    if (!std::getline(a, al)) al = "<eof>";
    if (al != el) break;
    ++line;
  }
  FAIL() << stem << " snapshot drifted at line " << line << "\n  expected: " << el
         << "\n  actual:   " << al
         << "\nIf intended, regen with FLASHQOS_GOLDEN_REGEN=1 and review.";
}

// Light uniform load, online mode: every request is served the moment it
// arrives, so per-interval avg and max response sit exactly on the flash
// page-read latency — the flat 0.132507 ms line of the paper's Figs. 8/9.
TEST(GoldenReplay, FlatlineOnlineModulo) {
  const auto t = load_trace("flatline", from_ms(3.0));
  core::PipelineConfig cfg;
  cfg.retrieval = core::RetrievalMode::kOnline;
  cfg.mapping = core::MappingMode::kModulo;
  const auto result = replay(cfg, t);

  ASSERT_EQ(result.intervals.size(), 16u);
  for (const auto& iv : result.intervals) {
    // Exact equality, not near: the flat line is a determinism claim.
    EXPECT_EQ(iv.avg_response_ms, 0.132507);
    EXPECT_EQ(iv.max_response_ms, 0.132507);
    EXPECT_EQ(iv.deferred, 0u);
  }
  EXPECT_EQ(result.overall.avg_response_ms, 0.132507);
  EXPECT_EQ(result.deadline_violations, 0u);

  check_golden("flatline_online_modulo", format_result(result));
}

// Bursty co-arrivals under interval-aligned retrieval with deterministic
// admission and FIM mapping: deferrals, write traffic, and FIM matches all
// live in this snapshot.
TEST(GoldenReplay, BurstyAlignedDetFim) {
  const auto t = load_trace("bursty", from_ms(4.0));
  core::PipelineConfig cfg;
  cfg.retrieval = core::RetrievalMode::kIntervalAligned;
  cfg.admission = core::AdmissionMode::kDeterministic;
  cfg.mapping = core::MappingMode::kFim;
  const auto result = replay(cfg, t);

  // The fixture is built to exercise the interesting counters; if these go
  // to zero the snapshot stops guarding anything.
  EXPECT_GT(result.overall.deferred, 0u);
  EXPECT_GT(result.overall.writes, 0u);
  EXPECT_GT(result.overall.fim_match_rate, 0.0);

  check_golden("bursty_aligned_det_fim", format_result(result));
}

// Same bursty fixture through the online path — the mode Table III uses —
// so both retrieval engines have a pinned snapshot.
TEST(GoldenReplay, BurstyOnlineDetFim) {
  const auto t = load_trace("bursty", from_ms(4.0));
  core::PipelineConfig cfg;
  cfg.retrieval = core::RetrievalMode::kOnline;
  cfg.admission = core::AdmissionMode::kDeterministic;
  cfg.mapping = core::MappingMode::kFim;
  const auto result = replay(cfg, t);
  check_golden("bursty_online_det_fim", format_result(result));
}

// Multi-tenant WFQ front end fixtures: the trace is generated in-code
// (trace::generate_multi_tenant is seeded and deterministic), only the
// snapshot is committed. Jittered arrivals push dispensing off the
// interval boundaries, so the wake machinery and mid-interval budget
// draws are all pinned by the snapshot.
core::PipelineConfig tenant_cfg() {
  core::PipelineConfig cfg;
  cfg.retrieval = core::RetrievalMode::kOnline;
  cfg.admission = core::AdmissionMode::kDeterministic;
  cfg.mapping = core::MappingMode::kModulo;
  cfg.tenants = {
      {.name = "gold", .weight = 2.0, .reservation = 2,
       .queue_capacity = 8, .mark_threshold = 6},
      {.name = "silver", .weight = 1.0, .reservation = 0,
       .queue_capacity = 8, .mark_threshold = 6},
      {.name = "flood", .weight = 1.0, .reservation = 0,
       .queue_capacity = 6, .mark_threshold = 4},
  };
  return cfg;
}

trace::Trace tenant_trace() {
  trace::MultiTenantParams mt;
  mt.intervals = 40;
  mt.tenants = {
      {.requests_per_interval = 2, .bucket_pool = 8},
      {.requests_per_interval = 1, .bucket_pool = 8},
      {.requests_per_interval = 7, .bucket_pool = 12},
  };
  mt.seed = 5;
  mt.jitter_slots = 3;
  return trace::generate_multi_tenant(mt);
}

TEST(GoldenReplay, MultiTenantOnlineDet) {
  const auto t = tenant_trace();
  const auto cfg = tenant_cfg();
  const auto result = replay(cfg, t);

  // The fixture must exercise the whole front end, or the snapshot stops
  // guarding anything: backpressure (marks and sheds on the flooder) and
  // an untouched reserved tenant.
  EXPECT_GT(result.tenant_usage[2].shed, 0u);
  EXPECT_GT(result.tenant_usage[2].marked, 0u);
  EXPECT_EQ(result.tenant_usage[0].shed, 0u);
  EXPECT_EQ(result.tenant_usage[0].admitted, result.tenant_usage[0].arrivals);

  check_golden("multi_tenant_online_det", format_result(result));
}

TEST(GoldenReplay, MultiTenantAlignedDet) {
  const auto t = tenant_trace();
  auto cfg = tenant_cfg();
  cfg.retrieval = core::RetrievalMode::kIntervalAligned;
  const auto result = replay(cfg, t);
  check_golden("multi_tenant_aligned_det", format_result(result));
}

// Over-budget fixtures: overload.trace is four ON/OFF cycles of six
// intervals at 2×S (S = 5 on (9,3,1)) — five reads exactly on each
// boundary, five mid-interval, a write every third ON interval — then
// eight idle intervals. The backlog peaks at 30 and drains every cycle,
// so every admission mode's deferral order is pinned. These snapshots end
// with a digest over every outcome's dispatch, start, finish, device and
// path, so a reordering that happens to keep the aggregates fails too.
/// FNV-1a 64 over each outcome's dispatch, start, finish, device and path,
/// in trace order.
class OutcomeDigest {
 public:
  void add(const core::RequestOutcome& o) {
    mix(o.dispatch);
    mix(o.start);
    mix(o.finish);
    mix(o.device);
    mix(static_cast<std::int64_t>(o.path));
    ++n_;
  }

  [[nodiscard]] std::string line() const {
    std::ostringstream out;
    out << "outcomes=" << n_ << " digest=" << std::hex << std::setw(16)
        << std::setfill('0') << h_ << "\n";
    return out.str();
  }

 private:
  void mix(std::int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }

  std::uint64_t h_ = 1469598103934665603ULL;
  std::size_t n_ = 0;
};

std::string outcome_digest(const core::PipelineResult& r) {
  OutcomeDigest d;
  for (const auto& o : r.outcomes) d.add(o);
  return d.line();
}

trace::Trace overload_trace(bool tenants) {
  auto t = load_trace("overload", from_ms(2.0));
  if (tenants) {
    for (auto& e : t.events) e.tenant = static_cast<std::uint32_t>(e.block % 3);
  }
  return t;
}

core::PipelineConfig overload_cfg(core::RetrievalMode retrieval,
                                  core::AdmissionMode admission,
                                  core::MappingMode mapping) {
  core::PipelineConfig cfg;
  cfg.retrieval = retrieval;
  cfg.admission = admission;
  cfg.mapping = mapping;
  if (admission == core::AdmissionMode::kStatistical) {
    cfg.epsilon = 0.2;
    cfg.p_table = core::sample_optimal_probabilities(scheme931(), 12,
                                                     {.samples_per_size = 400});
  }
  return cfg;
}

void overload_tenants(core::PipelineConfig& cfg) {
  cfg.tenants = {
      {.name = "gold", .weight = 2.0, .reservation = 2,
       .queue_capacity = 24, .mark_threshold = 16},
      {.name = "silver", .weight = 1.0, .reservation = 0,
       .queue_capacity = 24, .mark_threshold = 16},
      {.name = "flood", .weight = 1.0, .reservation = 0,
       .queue_capacity = 10, .mark_threshold = 6},
  };
}

void check_overload(const std::string& stem, const core::PipelineConfig& cfg) {
  const auto t = overload_trace(!cfg.tenants.empty());
  const auto result = replay(cfg, t);
  // The fixture must stay over budget, or the snapshot stops guarding the
  // deferral path.
  EXPECT_GT(result.overall.deferred, 0u);
  check_golden(stem, format_result(result) + outcome_digest(result));
}

using core::AdmissionMode;
using core::MappingMode;
using core::RetrievalMode;

TEST(GoldenOverload, OnlineDetModulo) {
  check_overload("overload_online_det_modulo",
                 overload_cfg(RetrievalMode::kOnline, AdmissionMode::kDeterministic,
                              MappingMode::kModulo));
}

TEST(GoldenOverload, OnlineDetFim) {
  check_overload("overload_online_det_fim",
                 overload_cfg(RetrievalMode::kOnline, AdmissionMode::kDeterministic,
                              MappingMode::kFim));
}

TEST(GoldenOverload, OnlineStatistical) {
  check_overload("overload_online_stat",
                 overload_cfg(RetrievalMode::kOnline, AdmissionMode::kStatistical,
                              MappingMode::kModulo));
}

TEST(GoldenOverload, AlignedDetFim) {
  check_overload("overload_aligned_det_fim",
                 overload_cfg(RetrievalMode::kIntervalAligned,
                              AdmissionMode::kDeterministic, MappingMode::kFim));
}

TEST(GoldenOverload, AlignedStatistical) {
  check_overload("overload_aligned_stat",
                 overload_cfg(RetrievalMode::kIntervalAligned,
                              AdmissionMode::kStatistical, MappingMode::kModulo));
}

TEST(GoldenOverload, PrimaryOnly) {
  auto cfg = overload_cfg(RetrievalMode::kOnline, AdmissionMode::kDeterministic,
                          MappingMode::kModulo);
  cfg.scheduler = core::SchedulerMode::kPrimaryOnly;
  check_overload("overload_primary_only", cfg);
}

// Outages while the backlog is carried: devices 0-2 hold every replica of
// some buckets, so reads strand, retry at the recovery boundary and merge
// back among the deferred reads; device 5 later narrows the live budget.
TEST(GoldenOverload, OnlineDetDegraded) {
  auto cfg = overload_cfg(RetrievalMode::kOnline, AdmissionMode::kDeterministic,
                          MappingMode::kFim);
  cfg.faults.outages = {{.device = 0, .fail_at = from_ms(0.3), .recover_at = from_ms(0.9)},
                        {.device = 1, .fail_at = from_ms(0.3), .recover_at = from_ms(0.9)},
                        {.device = 2, .fail_at = from_ms(0.3), .recover_at = from_ms(0.9)},
                        {.device = 5, .fail_at = from_ms(2.0), .recover_at = from_ms(2.5)}};
  check_overload("overload_online_det_degraded", cfg);
}

TEST(GoldenOverload, MultiTenantOnlineDet) {
  auto cfg = overload_cfg(RetrievalMode::kOnline, AdmissionMode::kDeterministic,
                          MappingMode::kModulo);
  overload_tenants(cfg);
  check_overload("overload_multi_tenant_online_det", cfg);
}

TEST(GoldenOverload, MultiTenantAlignedDet) {
  auto cfg = overload_cfg(RetrievalMode::kIntervalAligned,
                          AdmissionMode::kDeterministic, MappingMode::kFim);
  overload_tenants(cfg);
  check_overload("overload_multi_tenant_aligned_det", cfg);
}

TEST(GoldenOverload, MultiTenantOnlineDegraded) {
  auto cfg = overload_cfg(RetrievalMode::kOnline, AdmissionMode::kDeterministic,
                          MappingMode::kFim);
  overload_tenants(cfg);
  cfg.faults.outages = {{.device = 0, .fail_at = from_ms(0.3), .recover_at = from_ms(0.9)},
                        {.device = 1, .fail_at = from_ms(0.3), .recover_at = from_ms(0.9)},
                        {.device = 2, .fail_at = from_ms(0.3), .recover_at = from_ms(0.9)},
                        {.device = 4, .fail_at = from_ms(2.0)}};
  check_overload("overload_multi_tenant_online_degraded", cfg);
}

// Stranded reads retried at a boundary where fresh arrivals dispatch too:
// devices 0-2 are down from 0.5 to 2.0 ms, so aligned reads of the bucket
// they alone hold retry at the 16·T boundary together with that ON
// phase's fresh arrivals. The group at that instant is offered in seq
// order, so retries (older) come before fresh arrivals; the digest pins it.
TEST(GoldenOverload, AlignedDetDegraded) {
  auto cfg = overload_cfg(RetrievalMode::kIntervalAligned,
                          AdmissionMode::kDeterministic, MappingMode::kModulo);
  cfg.faults.outages = {{.device = 0, .fail_at = from_ms(0.5), .recover_at = from_ms(2.0)},
                        {.device = 1, .fail_at = from_ms(0.5), .recover_at = from_ms(2.0)},
                        {.device = 2, .fail_at = from_ms(0.5), .recover_at = from_ms(2.0)}};
  check_overload("overload_aligned_det_degraded", cfg);
}

// A seeded on/off stream long enough to cross the replay window's storage
// boundaries many times: eight cycles of 128 QoS intervals at 2×S (10
// distinct buckets at each interval start) and 160 idle intervals, 10,240
// reads. The backlog peaks at 640 reads every cycle, so even one event per
// batch keeps hundreds of requests in flight, and a 4096-event batch holds
// thousands. Every batch size must reproduce the one snapshot.
trace::Trace onoff_trace() {
  constexpr std::size_t kOn = 128, kOff = 160, kPerInterval = 10, kCycles = 8;
  trace::SyntheticParams p;
  p.bucket_pool = scheme931().buckets();
  p.requests_per_interval = kPerInterval;
  p.total_requests = kCycles * kOn * kPerInterval;
  p.seed = 24;
  auto t = trace::generate_synthetic(p);
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    const std::size_t interval = i / kPerInterval;
    t.events[i].time = static_cast<SimTime>(
        (interval / kOn) * (kOn + kOff) + interval % kOn) * p.interval;
  }
  t.report_interval = static_cast<SimTime>(kOn + kOff) * p.interval;  // one per cycle
  return t;
}

/// Digests streamed outcomes as outcome_digest() digests a result's.
class DigestSink final : public core::OutcomeSink {
 public:
  void on_outcome(std::uint64_t /*seq*/, const trace::TraceEvent& /*ev*/,
                  const core::RequestOutcome& out) override {
    digest.add(out);
  }

  OutcomeDigest digest;
};

TEST(GoldenOverload, OnOffStreamBatchSizes) {
  const auto t = onoff_trace();
  const auto cfg = overload_cfg(RetrievalMode::kOnline, AdmissionMode::kDeterministic,
                                MappingMode::kModulo);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
    SCOPED_TRACE("batch size " + std::to_string(batch));
    trace::VectorCursor cursor(t);
    DigestSink sink;
    const auto res = core::QosPipeline(scheme931(), cfg)
                         .run_stream(cursor, nullptr, {.batch_size = batch, .sink = &sink});
    EXPECT_EQ(res.requests, t.events.size());
    EXPECT_GT(res.overall.deferred, 0u);
    core::PipelineResult r;
    r.intervals = res.intervals;
    r.overall = res.overall;
    r.deadline_violations = res.deadline_violations;
    check_golden("onoff_stream_online_det_modulo", format_result(r) + sink.digest.line());
  }
}

}  // namespace
