// Unit tests for obs v2: windowed time-series (ring retention, the
// order-independent fold contract, snapshot determinism across recording
// thread counts, the seeded mis-fold knob), the SLO burn-rate monitor, and
// an end-to-end smoke of the /metrics HTTP exporter on an ephemeral port
// (byte-compare against the exporter functions, 404/405 handling, clean
// stop/restart).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/qos_pipeline.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "obs/export.hpp"
#include "obs/http_exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace flashqos::obs {
namespace {

// ---------------------------------------------------------------------------
// TimeSeries ring semantics

TEST(TimeSeries, RecordsAggregatePerWindow) {
  TimeSeries s(100, 8);
  s.record(10, 5);
  s.record(90, 7);
  s.record(150, 2);
  const auto snap = s.snapshot();
  ASSERT_EQ(snap.points.size(), 2u);
  const auto* w0 = snap.find_window(0);
  ASSERT_NE(w0, nullptr);
  EXPECT_EQ(w0->sum, 12);
  EXPECT_EQ(w0->count, 2u);
  EXPECT_EQ(w0->min, 5);
  EXPECT_EQ(w0->max, 7);
  EXPECT_EQ(w0->first_time, 10);
  const auto* w1 = snap.find_window(1);
  ASSERT_NE(w1, nullptr);
  EXPECT_EQ(w1->count, 1u);
  EXPECT_EQ(w1->sum, 2);
  EXPECT_EQ(snap.evicted, 0u);
}

TEST(TimeSeries, RingWrapKeepsNewestWindowPerResidue) {
  TimeSeries s(100, 4);
  // Windows 0..9 over a 4-slot ring: residue r retains its highest window.
  for (std::int64_t w = 0; w < 10; ++w) s.record(w * 100, w);
  const auto snap = s.snapshot();
  ASSERT_EQ(snap.points.size(), 4u);
  for (std::int64_t want : {6, 7, 8, 9}) {
    const auto* p = snap.find_window(want);
    ASSERT_NE(p, nullptr) << "window " << want;
    EXPECT_EQ(p->sum, want);
    EXPECT_EQ(p->count, 1u);
  }
  EXPECT_EQ(snap.evicted, 6u);  // six overwrites
}

TEST(TimeSeries, LateRecordForEvictedWindowIsDropped) {
  TimeSeries s(100, 4);
  for (std::int64_t w = 0; w < 8; ++w) s.record(w * 100, 1);
  const auto before = s.snapshot();
  s.record(250, 99);  // window 2: older than slot occupant (window 6)
  const auto after = s.snapshot();
  ASSERT_EQ(after.points.size(), before.points.size());
  const auto* w6 = after.find_window(6);
  ASSERT_NE(w6, nullptr);
  EXPECT_EQ(w6->sum, 1);  // untouched by the late record
  EXPECT_EQ(after.evicted, before.evicted + 1);
}

TEST(TimeSeries, MergeEqualsIndividualRecords) {
  TimeSeries a(50, 16);
  TimeSeries b(50, 16);
  const std::vector<std::pair<SimTime, std::int64_t>> recs = {
      {110, 4}, {120, -3}, {149, 9}, {101, 9}};
  std::int64_t sum = 0;
  std::int64_t mn = recs.front().second;
  std::int64_t mx = recs.front().second;
  SimTime first = recs.front().first;
  for (const auto& [at, v] : recs) {
    a.record(at, v);
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    first = std::min(first, at);
  }
  b.merge(2, first, sum, recs.size(), mn, mx);
  const auto sa = a.snapshot();
  const auto sb = b.snapshot();
  ASSERT_EQ(sa.points.size(), 1u);
  ASSERT_EQ(sb.points.size(), 1u);
  EXPECT_EQ(sa.points[0].sum, sb.points[0].sum);
  EXPECT_EQ(sa.points[0].count, sb.points[0].count);
  EXPECT_EQ(sa.points[0].min, sb.points[0].min);
  EXPECT_EQ(sa.points[0].max, sb.points[0].max);
  EXPECT_EQ(sa.points[0].first_time, sb.points[0].first_time);
}

TEST(TimeSeries, BatchedMergeEqualsOneMergePerPoint) {
  // A replay buffers closed windows and merges them in batches: every batch
  // split must leave the points and `evicted` of one merge per point, on a
  // 4-slot ring where windows overwrite older residues and late points are
  // dropped.
  Rng rng(11);
  std::vector<SeriesPoint> points;
  for (int i = 0; i < 300; ++i) {
    const std::int64_t window = rng.between(0, 24);
    const std::int64_t v = rng.between(-50, 50);
    const auto n = static_cast<std::uint64_t>(rng.between(1, 5));
    points.push_back({window, v * static_cast<std::int64_t>(n), n, v - 3, v + 3,
                      window * 100 + rng.between(0, 99)});
  }
  TimeSeries one(100, 4);
  for (const auto& p : points) {
    one.merge(p.window, p.first_time, p.sum, p.count, p.min, p.max);
  }
  const auto want = one.snapshot();
  EXPECT_GT(want.evicted, 0u);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                  points.size()}) {
    TimeSeries batched(100, 4);
    for (std::size_t i = 0; i < points.size(); i += batch) {
      batched.merge(std::span<const SeriesPoint>(points).subspan(
          i, std::min(batch, points.size() - i)));
    }
    const auto got = batched.snapshot();
    EXPECT_EQ(got.evicted, want.evicted) << "batch " << batch;
    ASSERT_EQ(got.points.size(), want.points.size()) << "batch " << batch;
    for (std::size_t k = 0; k < want.points.size(); ++k) {
      const auto& a = got.points[k];
      const auto& b = want.points[k];
      EXPECT_TRUE(a.window == b.window && a.sum == b.sum && a.count == b.count &&
                  a.min == b.min && a.max == b.max && a.first_time == b.first_time)
          << "batch " << batch << " point " << k;
    }
  }
}

TEST(TimeSeries, ResetDropsPointsKeepsWidth) {
  TimeSeries s(100, 4);
  s.record(10, 1);
  s.reset();
  EXPECT_TRUE(s.snapshot().points.empty());
  EXPECT_EQ(s.width(), 100);
  s.record(10, 2);
  EXPECT_EQ(s.snapshot().points.size(), 1u);
}

TEST(TimeSeries, CapacityMustBeAPowerOfTwo) {
  // The ring is indexed with a mask: any other capacity is refused.
  EXPECT_DEATH(TimeSeries(100, 1000), "power of two");
  EXPECT_DEATH(TimeSeries(100, 0), "power of two");
  const TimeSeries ok(100, 1024);
  EXPECT_TRUE(ok.snapshot().points.empty());
}

// ---------------------------------------------------------------------------
// Fold exactness + determinism across thread counts

struct Rec {
  std::size_t series;
  SimTime at;
  std::int64_t value;
};

std::vector<Rec> fixture_records(std::size_t n, std::uint64_t seed) {
  std::vector<Rec> recs;
  recs.reserve(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    recs.push_back({static_cast<std::size_t>(rng.below(3)),
                    static_cast<SimTime>(rng.below(40'000)),
                    static_cast<std::int64_t>(rng.between(-50, 50))});
  }
  return recs;
}

/// Replay `recs` into a fresh registry with `threads` workers (records
/// partitioned round-robin) and return the snapshot.
TimeSeriesSnapshot fold_with_threads(const std::vector<Rec>& recs,
                                     std::size_t threads) {
  TimeSeriesRegistry reg;
  std::vector<TimeSeries*> series = {&reg.series("t.a", "", 100, 64),
                                     &reg.series("t.b", "", 100, 64),
                                     &reg.series("t.c", "k=\"1\"", 100, 64)};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = t; i < recs.size(); i += threads) {
        series[recs[i].series]->record(recs[i].at, recs[i].value);
      }
    });
  }
  for (auto& w : workers) w.join();
  return reg.snapshot();
}

/// Point-content equality; `evicted` is excluded by contract (its value is
/// arrival-order dependent, point content is not).
void expect_same_points(const TimeSeriesSnapshot& a,
                        const TimeSeriesSnapshot& b) {
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    const auto& sa = a.series[i];
    const auto& sb = b.series[i];
    EXPECT_EQ(sa.name, sb.name);
    EXPECT_EQ(sa.labels, sb.labels);
    EXPECT_EQ(sa.width, sb.width);
    ASSERT_EQ(sa.points.size(), sb.points.size()) << sa.name;
    for (std::size_t j = 0; j < sa.points.size(); ++j) {
      const auto& pa = sa.points[j];
      const auto& pb = sb.points[j];
      EXPECT_EQ(pa.window, pb.window) << sa.name;
      EXPECT_EQ(pa.sum, pb.sum) << sa.name << " w" << pa.window;
      EXPECT_EQ(pa.count, pb.count) << sa.name << " w" << pa.window;
      EXPECT_EQ(pa.min, pb.min) << sa.name << " w" << pa.window;
      EXPECT_EQ(pa.max, pb.max) << sa.name << " w" << pa.window;
      EXPECT_EQ(pa.first_time, pb.first_time) << sa.name << " w" << pa.window;
    }
  }
}

TEST(TimeSeriesFold, MatchesMapOracle) {
  const auto recs = fixture_records(5000, 7);
  const auto snap = fold_with_threads(recs, 1);
  // Independent oracle: full per-window merge in a map, then the retention
  // rule (only the highest window per residue class survives a 64-ring).
  struct Pt {
    std::int64_t sum = 0;
    std::uint64_t count = 0;
    std::int64_t min = 0;
    std::int64_t max = 0;
    SimTime first = 0;
  };
  std::array<std::map<std::int64_t, Pt>, 3> oracle;
  for (const auto& r : recs) {
    auto& p = oracle[r.series][r.at / 100];
    if (p.count == 0) {
      p.min = p.max = r.value;
      p.first = r.at;
    } else {
      p.min = std::min(p.min, r.value);
      p.max = std::max(p.max, r.value);
      p.first = std::min(p.first, r.at);
    }
    p.sum += r.value;
    ++p.count;
  }
  const std::array<const char*, 3> names = {"t.a", "t.b", "t.c"};
  const std::array<const char*, 3> labels = {"", "", "k=\"1\""};
  for (std::size_t k = 0; k < 3; ++k) {
    std::map<std::int64_t, std::int64_t> newest;  // residue -> max window
    for (const auto& [w, p] : oracle[k]) {
      auto [it, fresh] = newest.try_emplace(w % 64, w);
      if (!fresh && w > it->second) it->second = w;
    }
    const auto* s = snap.find(names[k], labels[k]);
    ASSERT_NE(s, nullptr);
    ASSERT_EQ(s->points.size(), newest.size());
    for (const auto& [res, w] : newest) {
      const auto& want = oracle[k].at(w);
      const auto* got = s->find_window(w);
      ASSERT_NE(got, nullptr) << names[k] << " window " << w;
      EXPECT_EQ(got->sum, want.sum);
      EXPECT_EQ(got->count, want.count);
      EXPECT_EQ(got->min, want.min);
      EXPECT_EQ(got->max, want.max);
      EXPECT_EQ(got->first_time, want.first);
    }
  }
}

TEST(TimeSeriesFold, DeterministicAcrossThreadCounts) {
  const auto recs = fixture_records(20'000, 11);
  const auto serial = fold_with_threads(recs, 1);
  expect_same_points(serial, fold_with_threads(recs, 2));
  expect_same_points(serial, fold_with_threads(recs, 8));
}

TEST(TimeSeriesRegistry, MisfoldKnobPerturbsEveryPoint) {
  TimeSeriesRegistry reg;
  auto& s = reg.series("m.x", "", 100, 16);
  s.record(10, 1);
  s.record(250, 4);
  const auto clean = reg.snapshot();
  reg.set_misfold_for_test(true);
  const auto bad = reg.snapshot();
  reg.set_misfold_for_test(false);
  const auto clean_again = reg.snapshot();
  ASSERT_EQ(clean.series.size(), 1u);
  ASSERT_EQ(bad.series.size(), 1u);
  for (std::size_t j = 0; j < clean.series[0].points.size(); ++j) {
    EXPECT_EQ(bad.series[0].points[j].sum, clean.series[0].points[j].sum + 1);
    EXPECT_EQ(clean_again.series[0].points[j].sum,
              clean.series[0].points[j].sum);
  }
}

// ---------------------------------------------------------------------------
// SLO monitor

SloSpec one_window_spec(double budget) {
  SloSpec spec;
  spec.kind = SloKind::kP99Response;
  spec.threshold_ns = 1000;
  spec.budget = budget;
  spec.short_windows = 1;
  spec.long_windows = 1;
  return spec;
}

TEST(SloMonitor, OneWindowSpecClassifiesExactly) {
  SloMonitor mon;
  mon.configure({one_window_spec(0.01)});
  mon.record(0, 0, 1000, 0);   // burn 0 -> ok
  EXPECT_EQ(mon.state(0), SloMonitor::State::kOk);
  mon.record(0, 1, 1000, 6);   // 0.6% of 1% budget -> warn (>= 0.5 burn)
  EXPECT_EQ(mon.state(0), SloMonitor::State::kWarn);
  mon.record(0, 2, 1000, 25);  // 2.5% of 1% budget -> page
  EXPECT_EQ(mon.state(0), SloMonitor::State::kPage);
  mon.record(0, 3, 0, 0);      // idle window -> ok again
  EXPECT_EQ(mon.state(0), SloMonitor::State::kOk);
  const auto snap = mon.snapshot();
  ASSERT_EQ(snap.specs.size(), 1u);
  EXPECT_EQ(snap.specs[0].windows, 4u);
  EXPECT_EQ(snap.specs[0].pages, 1u);
  EXPECT_EQ(snap.specs[0].warns, 1u);
  ASSERT_EQ(snap.log.size(), 2u);  // the warn and the page, oldest first
  EXPECT_EQ(snap.log[0].state, SloMonitor::State::kWarn);
  EXPECT_EQ(snap.log[1].state, SloMonitor::State::kPage);
  EXPECT_EQ(snap.log[1].window, 2);
}

TEST(SloMonitor, MultiWindowBurnNeedsBothHorizons) {
  SloSpec spec = one_window_spec(0.01);
  spec.short_windows = 1;
  spec.long_windows = 4;
  SloMonitor mon;
  mon.configure({spec});
  // Three healthy windows dilute the long burn: one fully-bad window is
  // 25% bad over the 4-window horizon -> long burn 25 >= 1.0, but after
  // only healthy history a single bad window pages (both horizons breach).
  for (std::int64_t w = 0; w < 3; ++w) mon.record(0, w, 100, 0);
  mon.record(0, 3, 100, 100);
  EXPECT_EQ(mon.state(0), SloMonitor::State::kPage);
  // A healthy window drops the short burn to 0 -> ok, regardless of the
  // long horizon still containing the bad window.
  mon.record(0, 4, 100, 0);
  EXPECT_EQ(mon.state(0), SloMonitor::State::kOk);
}

TEST(SloMonitor, ViolationLogIsBounded) {
  SloMonitor mon;
  mon.configure({one_window_spec(1e-6)});
  for (std::int64_t w = 0; w < 400; ++w) mon.record(0, w, 10, 10);
  const auto snap = mon.snapshot();
  EXPECT_EQ(snap.log.size(), 256u);
  EXPECT_EQ(snap.log_dropped, 400u - 256u);
  // The log keeps the EARLIEST violations (most diagnostic for a replay)
  // and counts the overflow instead of ring-rotating.
  EXPECT_EQ(snap.log.front().window, 0);
  EXPECT_EQ(snap.log.back().window, 255);
}

TEST(SloSpecApi, NamesAndValidation) {
  SloSpec spec = one_window_spec(0.01);
  EXPECT_EQ(spec.name(), "p99_response/*");
  spec.tenant = "gold";
  spec.kind = SloKind::kAdmissionFloor;
  EXPECT_EQ(spec.name(), "admission_floor/gold");
  EXPECT_TRUE(spec.validate().empty());
  spec.budget = 0.0;
  EXPECT_FALSE(spec.validate().empty());
}

TEST(SloMonitor, JsonReportHoldsSpecsAndViolations) {
  SloMonitor mon;
  mon.configure({one_window_spec(1e-6)});
  mon.record(0, 0, 10, 10);
  const auto text = to_json(mon.snapshot());
  EXPECT_NE(text.find("\"slos\": ["), std::string::npos);
  EXPECT_NE(text.find("\"p99_response/*\""), std::string::npos);
  EXPECT_NE(text.find("\"state\": \"page\""), std::string::npos);
  EXPECT_NE(text.find("\"violations\": ["), std::string::npos);
  EXPECT_NE(text.find("\"violations_dropped\": 0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Pipeline integration: windowed series of a real replay

TEST(PipelineWindows, ReadCountsSumAcrossWindows) {
  if constexpr (!kEnabled) {
    GTEST_SKIP() << "FLASHQOS_OBS=OFF";
  } else {
    auto& tsr = TimeSeriesRegistry::global();
    tsr.reset();
    const decluster::DesignTheoretic scheme(design::make_9_3_1(), true);
    trace::SyntheticParams sp;
    sp.bucket_pool = scheme.buckets();
    sp.requests_per_interval = 3;
    sp.total_requests = 300;
    const auto t = trace::generate_synthetic(sp);
    const auto result =
        core::QosPipeline(scheme, core::PipelineConfig{}).run(t);
    std::uint64_t reads = 0;
    for (const auto& o : result.outcomes) {
      if (!o.failed && !o.is_write) ++reads;
    }
    const auto snap = tsr.snapshot();
    const auto* win_reads = snap.find("win.reads");
    ASSERT_NE(win_reads, nullptr);
    std::uint64_t total = 0;
    std::uint64_t device_total = 0;
    for (const auto& p : win_reads->points) total += p.count;
    EXPECT_EQ(total, reads);
    for (const auto& s : snap.series) {
      if (s.name != "win.device.reads") continue;
      for (const auto& p : s.points) device_total += p.count;
    }
    EXPECT_EQ(device_total, reads);
    const auto* resp = snap.find("win.response_ns");
    ASSERT_NE(resp, nullptr);
    for (const auto& p : resp->points) {
      EXPECT_GE(p.min, 0);
      EXPECT_LE(p.min, p.max);
    }
    tsr.reset();
  }
}

// ---------------------------------------------------------------------------
// HTTP exporter smoke

/// Minimal loopback HTTP/1.0-style client: send `request`, read to EOF.
std::string http_roundtrip(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return {};
  }
  std::string reply;
  if (::send(fd, request.data(), request.size(), 0) ==
      static_cast<ssize_t>(request.size())) {
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      reply.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return reply;
}

std::string body_of(const std::string& reply) {
  const auto sep = reply.find("\r\n\r\n");
  return sep == std::string::npos ? std::string{} : reply.substr(sep + 4);
}

TEST(HttpExporter, ServesMetricsSeriesAndSlo) {
  MetricRegistry::global().reset();
  TimeSeriesRegistry::global().reset();
  MetricRegistry::global().counter("smoke.requests").inc(42);
  TimeSeriesRegistry::global().series("smoke.win", "", 100, 8).record(10, 3);

  HttpExporter server;
  ASSERT_TRUE(server.start()) << server.last_error();
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  const auto metrics = http_roundtrip(
      server.port(), "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(metrics.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  // Quiescent byte-compare: the handler bumps its own request counter
  // BEFORE snapshotting, so the served body must equal a fresh local
  // export of the same registry, byte for byte.
  EXPECT_EQ(body_of(metrics), to_prometheus(MetricRegistry::global().snapshot()));
  EXPECT_NE(body_of(metrics).find("flashqos_smoke_requests_total 42\n"),
            std::string::npos);

  const auto series = http_roundtrip(server.port(),
                                     "GET /series HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(series.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_EQ(body_of(series),
            to_csv(TimeSeriesRegistry::global().snapshot()));

  const auto slo =
      http_roundtrip(server.port(), "GET /slo HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(slo.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(slo.find("\"slos\": ["), std::string::npos);

  EXPECT_TRUE(server.self_probe());
  server.stop();
  EXPECT_FALSE(server.running());
  MetricRegistry::global().reset();
  TimeSeriesRegistry::global().reset();
}

TEST(HttpExporter, RejectsUnknownPathAndMethod) {
  HttpExporter server;
  ASSERT_TRUE(server.start()) << server.last_error();
  const auto missing = http_roundtrip(
      server.port(), "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(missing.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u);
  const auto post = http_roundtrip(
      server.port(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(post.rfind("HTTP/1.1 405 Method Not Allowed\r\n", 0), 0u);
  server.stop();
}

TEST(HttpExporter, StopsAndRestartsCleanly) {
  HttpExporter server;
  ASSERT_TRUE(server.start()) << server.last_error();
  const auto first_port = server.port();
  EXPECT_TRUE(server.self_probe());
  server.stop();
  server.stop();  // idempotent
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);
  ASSERT_TRUE(server.start()) << server.last_error();
  EXPECT_TRUE(server.self_probe());
  EXPECT_NE(server.port(), 0);
  (void)first_port;  // ephemeral; the second bind may land anywhere
  server.stop();
}

}  // namespace
}  // namespace flashqos::obs
