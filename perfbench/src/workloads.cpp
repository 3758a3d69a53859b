// The four workloads, the in-process and over-the-wire repetitions they
// time, and the gates every repetition passes.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>

#include "bench.hpp"
#include "design/constructions.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "service/pipeline_service.hpp"
#include "trace/stream_reader.hpp"
#include "trace/synthetic.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace flashqos;

void Gates::check(const std::string& name, bool ok, std::uint64_t ops_if_failed) {
  auto& t = tally_[name];
  if (ok) {
    ++t.first;
    return;
  }
  ++t.second;
  ++failed_checks_;
  failed_ops_ += std::max<std::uint64_t>(ops_if_failed, 1);
}

void Gates::print() const {
  for (const auto& [name, t] : tally_) {
    std::printf("gate %-44s %s (%llu of %llu checks passed)\n", name.c_str(),
                t.second == 0 ? "ok" : "FAILED", static_cast<unsigned long long>(t.first),
                static_cast<unsigned long long>(t.first + t.second));
  }
}

void OutcomeStats::add(const net::WireCompletion& w, const core::RequestOutcome& o,
                       SimTime deadline) {
  ++outcomes;
  digest.add(w.tag);
  digest.add(static_cast<std::uint64_t>(w.arrival));
  digest.add(static_cast<std::uint64_t>(w.dispatch));
  digest.add(static_cast<std::uint64_t>(w.start));
  digest.add(static_cast<std::uint64_t>(w.finish));
  digest.add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(w.device)) |
             (std::uint64_t{w.path} << 32) | (std::uint64_t{w.flags} << 40));
  digest.add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(w.q_ppm)) |
             (std::uint64_t{w.tenant} << 32));
  if (o.path == core::RetrievalPath::kShed) {
    ++shed;
    return;
  }
  if (o.failed) {
    ++failed;
    return;
  }
  if (o.is_write) return;
  ++reads;
  if (o.deferred()) ++deferred;
  if (o.response() > deadline) ++deadline_miss;
  response_ns.record(o.response());
  e2e_ns.record(o.end_to_end());
  first_arrival = std::min(first_arrival, o.arrival);
  last_finish = std::max(last_finish, o.finish);
}

std::size_t TimedCursor::fill(std::span<trace::TraceEvent> out) {
  std::size_t n = 0;
  {
    Scoped span(log_, "trace.fill");
    n = inner_.fill(out);
  }
  delivered_ += n;
  return n;
}

void StatsSink::on_outcome(std::uint64_t seq, const trace::TraceEvent& /*ev*/,
                           const core::RequestOutcome& out) {
  stats_.add(net::to_wire_completion(seq, out), out, deadline_);
  if (captured.size() < capture) captured.push_back(out);
}

void replay(const Setup& s, trace::TraceCursor& inner, OutcomeStats& stats, Rep& rep,
            SpanLog* log, std::size_t capture, std::vector<core::RequestOutcome>* captured) {
  TimedCursor cursor(inner, log);
  StatsSink sink(stats, s.cfg.qos_interval);
  sink.capture = captured != nullptr ? capture : 0;
  core::QosPipeline pipe(*s.scheme, s.cfg);
  core::StreamOptions so;
  so.keep_intervals = false;
  so.sink = &sink;
  const std::int64_t t0 = now_ns();
  {
    Scoped span(log, "core.run_stream");
    rep.result = pipe.run_stream(cursor, nullptr, so);
  }
  rep.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  rep.submitted = cursor.delivered();
  if (captured != nullptr) *captured = std::move(sink.captured);
}

void Workload::run(Setup& s, Rep& rep, OutcomeStats& stats, SpanLog* log) {
  auto cursor = open(s);
  replay(s, *cursor, stats, rep, log);
}

namespace {

constexpr std::uint32_t kWindow = 256;  // requests in flight; the daemon's inflight_cap
constexpr std::uint32_t kBatch = 64;    // events per submit frame

/// Sets TCP_NODELAY on this process's client end of the loopback
/// connection to `port` (net::Client keeps its socket to itself and leaves
/// Nagle on). False if no such socket is found.
bool client_nodelay(std::uint16_t port) {
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/fd", ec)) {
    const int fd = std::atoi(e.path().filename().c_str());
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    if (getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &len) != 0 ||
        peer.sin_family != AF_INET || ntohs(peer.sin_port) != port) {
      continue;
    }
    const int one = 1;
    return setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
  }
  return false;
}

/// One daemon session over loopback: PipelineService + DaemonServer with
/// one dispatcher, one client connection running a closed loop of
/// kBatch-event submit frames inside a kWindow, sending kFlush at the next
/// unsent arrival whenever the window is full. Fills rep.setup_s
/// (service/daemon start + connect) and rep.wall_s (first submit through
/// kDrained).
void wire_session(const Setup& s, Rep& rep, OutcomeStats& stats, SpanLog* log) {
  const std::span<const trace::TraceEvent> events = s.trace.events;
  const std::int64_t t_setup = now_ns();
  service::ServiceOptions so;
  so.pipeline = s.cfg;
  so.meta = s.meta;
  service::PipelineService svc(*s.scheme, so);
  net::ServerOptions sopts;
  sopts.dispatchers = 1;
  sopts.inflight_cap = kWindow;
  sopts.max_batch = 1024;
  net::DaemonServer server(svc, sopts);
  rep.submitted = events.size();
  if (!server.start()) return;
  net::Client client;
  if (!client.connect(server.port())) return;
  rep.setup_s = static_cast<double>(now_ns() - t_setup) / 1e9;
  // Every thread of the session shares the CPU the repetition runs on
  // (see repeat), so a session depends on one CPU of the shared host, as an
  // in-process repetition does. On one CPU the client's flush frame would
  // wait behind its unacknowledged submit frame (Nagle) for the daemon's
  // delayed ACK, 40 ms per window; the client sends without delay instead.
  rep.nodelay = client_nodelay(server.port());

  const std::size_t n_events = events.size();
  std::vector<std::int64_t> sent_at((n_events + kBatch - 1) / kBatch);
  std::vector<net::WireEvent> wire(kBatch);
  // Harvest as we go: the client's vectors stay O(window).
  const auto harvest = [&] {
    const std::int64_t t = now_ns();
    for (const auto& c : client.completions) {
      stats.add(c, net::from_wire_completion(c), s.cfg.qos_interval);
      rep.rtt_ns.record(t - sent_at[c.tag / kBatch]);
    }
    client.completions.clear();
    rep.pushbacks += client.pushbacks.size();
    client.pushbacks.clear();
  };

  bool ok = true;
  std::size_t sent = 0;
  const std::int64_t t0 = now_ns();
  while (ok && sent < n_events) {
    const std::size_t n = std::min<std::size_t>(kBatch, n_events - sent);
    if (client.outstanding() + n > kWindow) {
      // Window full: promise nothing earlier than the next unsent arrival
      // will come, so the engine answers everything below it. The flush is
      // re-sent on every full-window pass (the daemon ignores a floor it
      // already has): with no data of ours in flight the daemon's next
      // completion frame would otherwise wait for a delayed TCP ACK.
      {
        Scoped span(log, "net.client.flush");
        ok = client.flush(events[sent].time);
      }
      {
        Scoped span(log, "net.client.pump");
        ok = ok && client.pump(-1);
      }
      harvest();
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto& ev = events[sent + i];
      wire[i] = net::WireEvent{.tag = sent + i,
                               .time = ev.time,
                               .block = ev.block,
                               .device = ev.device,
                               .size_blocks = ev.size_blocks,
                               .tenant = ev.tenant,
                               .flags = static_cast<std::uint8_t>(ev.is_read ? 1 : 0)};
    }
    sent_at[sent / kBatch] = now_ns();
    {
      Scoped span(log, "net.client.submit");
      ok = client.submit_raw({wire.data(), n});
    }
    sent += n;
    ok = ok && client.pump(0);
    harvest();
  }
  if (ok) {
    Scoped span(log, "net.client.finish");
    ok = client.finish();
  }
  harvest();
  rep.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  client.close();
  rep.result = server.wait_done();
  rep.dropped = server.dropped_completions();
  rep.clamped = svc.clamped_events();
  server.stop();
}

}  // namespace

trace::Trace prefix(Workload& w, const Setup& s, std::size_t n) {
  auto cursor = w.open(s);
  trace::Trace t;
  t.name = s.meta.name;
  t.volumes = s.meta.volumes;
  t.report_interval = s.meta.report_interval;
  t.events.resize(n);
  std::size_t have = 0;
  while (have < n) {
    const std::size_t got = cursor->fill(std::span(t.events).subspan(have));
    if (got == 0) break;
    have += got;
  }
  t.events.resize(have);
  return t;
}

void check_rep(const Workload& w, const Setup& s, const Rep& rep, const OutcomeStats& stats,
               Gates& g) {
  const std::uint64_t answered = stats.outcomes + rep.pushbacks;
  const std::uint64_t lost = rep.submitted > answered ? rep.submitted - answered : 0;
  g.check("conservation: outcomes + pushbacks == submitted",
          rep.submitted == s.requests && answered == rep.submitted &&
              rep.result.requests == stats.outcomes,
          lost);
  g.check("identity: outcomes digest == in-process reference",
          stats.digest.value() == s.ref_digest, stats.outcomes);
  if (w.guaranteed()) {
    g.check("guarantee: zero deadline misses (online deterministic)",
            stats.deadline_miss == 0 && rep.result.deadline_violations == 0,
            stats.deadline_miss);
  }
  g.check("trace.parse_errors == 0", rep.parse_errors == 0, rep.parse_errors);
  if (w.over_wire()) {
    g.check("wire: client socket sends without delay (TCP_NODELAY)", rep.nodelay);
    g.check("wire: zero clamped events", rep.clamped == 0, rep.clamped);
    g.check("wire: zero pushbacks", rep.pushbacks == 0, rep.pushbacks);
    g.check("wire: zero dropped completions", rep.dropped == 0, rep.dropped);
  }
}

namespace {

core::PipelineConfig online_modulo() {
  core::PipelineConfig cfg;
  cfg.retrieval = core::RetrievalMode::kOnline;
  cfg.admission = core::AdmissionMode::kDeterministic;
  cfg.mapping = core::MappingMode::kModulo;
  return cfg;
}

bool same_report(const core::IntervalReport& a, const core::IntervalReport& b) {
  return a.requests == b.requests && a.avg_response_ms == b.avg_response_ms &&
         a.max_response_ms == b.max_response_ms && a.avg_e2e_ms == b.avg_e2e_ms &&
         a.max_e2e_ms == b.max_e2e_ms && a.deferred == b.deferred &&
         a.pct_deferred == b.pct_deferred && a.avg_delay_ms == b.avg_delay_ms &&
         a.fim_match_rate == b.fim_match_rate && a.failed == b.failed &&
         a.writes == b.writes && a.avg_write_ms == b.avg_write_ms;
}

bool same_event(const trace::TraceEvent& a, const trace::TraceEvent& b) {
  return a.time == b.time && a.block == b.block && a.device == b.device &&
         a.size_blocks == b.size_blocks && a.is_read == b.is_read && a.tenant == b.tenant;
}

// ---- exchange_online_file ---------------------------------------------------

/// Writes `cursor` as DiskSim ASCII with the arrival in milliseconds at full
/// nanosecond precision (integer arithmetic, so no instant collapses).
std::uint64_t write_disksim(trace::TraceCursor& cursor, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return 0;
  std::vector<trace::TraceEvent> buf(4096);
  std::string out;
  std::uint64_t written = 0;
  char num[32];
  const auto put = [&](std::uint64_t v) {
    const auto r = std::to_chars(num, num + sizeof(num), v);
    out.append(num, r.ptr);
  };
  for (std::size_t n = cursor.fill(buf); n > 0; n = cursor.fill(buf)) {
    out.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const auto& e = buf[i];
      const auto t = static_cast<std::uint64_t>(e.time);
      put(t / 1'000'000);
      out.push_back('.');
      const auto frac = t % 1'000'000;
      for (std::uint64_t d = 100'000; d > 0; d /= 10) {
        out.push_back(static_cast<char>('0' + (frac / d) % 10));
      }
      out.push_back(' ');
      put(e.device);
      out.push_back(' ');
      put(e.block);
      out.push_back(' ');
      put(std::uint64_t{e.size_blocks} * 16);  // 512-byte sectors per 8 KB block
      out.append(e.is_read ? " 1\n" : " 0\n");
    }
    std::fwrite(out.data(), 1, out.size(), f);
    written += n;
  }
  return std::fclose(f) == 0 ? written : 0;
}

class ExchangeOnlineFile final : public Workload {
 public:
  [[nodiscard]] const char* name() const override { return "exchange_online_file"; }

  void setup(Setup& s, const Options& opt) override {
    params_ = trace::exchange_params(opt.tiny ? 0.5 : 10.0, opt.seed);
    s.scheme = std::make_unique<decluster::DesignTheoretic>(design::make_9_3_1());
    s.cfg = online_modulo();
    const std::string dir = opt.out_dir + "/data";
    std::filesystem::create_directories(dir);
    s.file = dir + "/exchange-seed" + std::to_string(opt.seed) + ".trace";
    auto gen = trace::make_workload_cursor(params_);
    s.meta = gen->meta();
    s.requests = write_disksim(*gen, s.file);
  }

  std::unique_ptr<trace::TraceCursor> open(const Setup& s) override {
    return trace::open_disksim_cursor(s.file, s.meta.name, s.meta.volumes,
                                      s.meta.report_interval);
  }

  void run(Setup& s, Rep& rep, OutcomeStats& stats, SpanLog* log) override {
    auto cursor = trace::open_disksim_cursor(s.file, s.meta.name, s.meta.volumes,
                                             s.meta.report_interval);
    replay(s, *cursor, stats, rep, log);
    rep.parse_errors = cursor->parse_errors();
  }

  void validate(Setup& s, const Options& /*opt*/, Gates& g) override {
    // Round trip, event level: the file parses back to the generated stream.
    {
      auto file = open(s);
      auto gen = trace::make_workload_cursor(params_);
      std::vector<trace::TraceEvent> a(4096);
      std::vector<trace::TraceEvent> b(4096);
      bool same = true;
      std::uint64_t n = 0;
      for (;;) {
        const std::size_t na = file->fill(a);
        const std::size_t nb = gen->fill(b);
        same = same && na == nb;
        for (std::size_t i = 0; same && i < na; ++i) same = same_event(a[i], b[i]);
        n += na;
        if (!same || na == 0) break;
      }
      g.check("exchange: file events == generated events (exact)", same && n == s.requests,
              s.requests);
    }
    // Round trip, replay level: identical results, doubles compared exactly.
    Rep from_file;
    OutcomeStats file_stats;
    run(s, from_file, file_stats, nullptr);
    auto gen = trace::make_workload_cursor(params_);
    Rep from_memory;
    OutcomeStats memory_stats;
    replay(s, *gen, memory_stats, from_memory, nullptr);
    g.check("exchange: file replay == in-memory replay (exact)",
            file_stats.digest.value() == memory_stats.digest.value() &&
                from_file.result.requests == from_memory.result.requests &&
                from_file.result.deadline_violations == from_memory.result.deadline_violations &&
                same_report(from_file.result.overall, from_memory.result.overall),
            s.requests);
  }

 private:
  trace::WorkloadParams params_;
};

// ---- tpce_aligned_fim ------------------------------------------------------

class TpceAlignedFim final : public Workload {
 public:
  [[nodiscard]] const char* name() const override { return "tpce_aligned_fim"; }
  [[nodiscard]] bool guaranteed() const override { return false; }

  void setup(Setup& s, const Options& opt) override {
    s.trace = trace::generate_workload(trace::tpce_params(opt.tiny ? 0.05 : 2.0, opt.seed));
    s.scheme = std::make_unique<decluster::DesignTheoretic>(design::make_13_3_1());
    s.cfg.retrieval = core::RetrievalMode::kIntervalAligned;
    s.cfg.admission = core::AdmissionMode::kDeterministic;
    s.cfg.mapping = core::MappingMode::kFim;
    s.meta = {s.trace.name, s.trace.volumes, s.trace.report_interval};
    s.requests = s.trace.events.size();
  }

  std::unique_ptr<trace::TraceCursor> open(const Setup& s) override {
    return std::make_unique<trace::VectorCursor>(s.trace);
  }
};

// ---- onoff_overload --------------------------------------------------------

constexpr std::size_t kOnIntervals = 64;
constexpr std::size_t kOffIntervals = 128;
constexpr std::size_t kOnPerInterval = 10;  // 2 x S on (9,3,1)
constexpr std::size_t kPerCycle = kOnIntervals * kOnPerInterval;

/// ON/OFF overload stream over pre-drawn buckets: each cycle is 64 QoS
/// intervals of 10 distinct buckets at the interval start, then 128 idle
/// intervals.
class OnOffCursor final : public trace::TraceCursor {
 public:
  OnOffCursor(std::span<const std::uint8_t> buckets, SimTime interval)
      : buckets_(buckets),
        interval_(interval),
        meta_{"onoff_overload", 9,
              static_cast<SimTime>(kOnIntervals + kOffIntervals) * interval} {}

  [[nodiscard]] const trace::TraceMeta& meta() const noexcept override { return meta_; }

  [[nodiscard]] std::size_t fill(std::span<trace::TraceEvent> out) override {
    const std::size_t n = std::min(out.size(), buckets_.size() - pos_);
    for (std::size_t i = 0; i < n; ++i, ++pos_) {
      const std::size_t cycle = pos_ / kPerCycle;
      const std::size_t on = (pos_ % kPerCycle) / kOnPerInterval;
      trace::TraceEvent e;
      e.time = static_cast<SimTime>(cycle * (kOnIntervals + kOffIntervals) + on) * interval_;
      e.block = buckets_[pos_];
      out[i] = e;
    }
    return n;
  }

  void reset() override { pos_ = 0; }

 private:
  std::span<const std::uint8_t> buckets_;
  SimTime interval_;
  trace::TraceMeta meta_;
  std::size_t pos_ = 0;
};

class OnOffOverload final : public Workload {
 public:
  [[nodiscard]] const char* name() const override { return "onoff_overload"; }

  void setup(Setup& s, const Options& opt) override {
    s.scheme = std::make_unique<decluster::DesignTheoretic>(design::make_9_3_1());
    s.cfg = online_modulo();
    const std::size_t cycles = opt.tiny ? 8 : 160;
    Rng rng(opt.seed);
    std::vector<std::uint8_t> pool(s.scheme->buckets());
    s.buckets.clear();
    s.buckets.reserve(cycles * kPerCycle);
    for (std::size_t iv = 0; iv < cycles * kOnIntervals; ++iv) {
      std::iota(pool.begin(), pool.end(), std::uint8_t{0});
      for (std::size_t k = 0; k < kOnPerInterval; ++k) {  // partial Fisher-Yates
        std::swap(pool[k], pool[k + rng.below(pool.size() - k)]);
        s.buckets.push_back(pool[k]);
      }
    }
    s.meta = OnOffCursor({}, s.cfg.qos_interval).meta();
    s.requests = s.buckets.size();
  }

  std::unique_ptr<trace::TraceCursor> open(const Setup& s) override {
    return std::make_unique<OnOffCursor>(s.buckets, s.cfg.qos_interval);
  }

  /// Deferral work per request is the same at N and 2N: the backlog drains
  /// every cycle, so the workload measures bounded bursts, not runaway
  /// growth.
  void validate(Setup& s, const Options& /*opt*/, Gates& g) override {
    auto& reg = obs::MetricRegistry::global();
    const std::size_t n = (s.buckets.size() / kPerCycle / 4) * kPerCycle;
    std::uint64_t events[2] = {0, 0};
    for (int k = 0; k < 2; ++k) {
      reg.reset();
      OnOffCursor cursor(std::span(s.buckets).first(n * static_cast<std::size_t>(k + 1)),
                         s.cfg.qos_interval);
      Rep rep;
      OutcomeStats stats;
      replay(s, cursor, stats, rep, nullptr);
      const auto snap = reg.snapshot();
      const auto* c = snap.find_counter("pipeline.deferral_events");
      events[k] = c != nullptr ? c->value : 0;
    }
    std::printf("onoff: deferral events %llu at N=%zu, %llu at 2N (%.4f per request)\n",
                static_cast<unsigned long long>(events[0]), n,
                static_cast<unsigned long long>(events[1]),
                n > 0 ? static_cast<double>(events[0]) / static_cast<double>(n) : 0.0);
    g.check("onoff: deferral events per request equal at N and 2N",
            n > 0 && events[0] > 0 && 2 * events[0] == events[1], 2 * n);
    reg.reset();
  }
};

// ---- daemon_wire -----------------------------------------------------------

class DaemonWire final : public Workload {
 public:
  [[nodiscard]] const char* name() const override { return "daemon_wire"; }
  [[nodiscard]] bool over_wire() const override { return true; }

  void setup(Setup& s, const Options& opt) override {
    s.scheme = std::make_unique<decluster::DesignTheoretic>(design::make_9_3_1());
    s.cfg = online_modulo();
    trace::SyntheticParams p;
    p.bucket_pool = s.scheme->buckets();
    p.interval = s.cfg.qos_interval;
    p.requests_per_interval = 4;  // inside S = 5: nothing defers, nothing clamps
    p.total_requests = opt.tiny ? 20'000 : 150'000;
    p.seed = opt.seed;
    s.trace = trace::generate_synthetic(p);
    s.trace.name = name();
    s.trace.volumes = s.scheme->devices();
    s.trace.report_interval = 1024 * s.cfg.qos_interval;
    s.meta = {s.trace.name, s.trace.volumes, s.trace.report_interval};
    s.requests = s.trace.events.size();
  }

  std::unique_ptr<trace::TraceCursor> open(const Setup& s) override {
    return std::make_unique<trace::VectorCursor>(s.trace);
  }

  void run(Setup& s, Rep& rep, OutcomeStats& stats, SpanLog* log) override {
    wire_session(s, rep, stats, log);
  }
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "exchange_online_file") return std::make_unique<ExchangeOnlineFile>();
  if (name == "tpce_aligned_fim") return std::make_unique<TpceAlignedFim>();
  if (name == "onoff_overload") return std::make_unique<OnOffOverload>();
  if (name == "daemon_wire") return std::make_unique<DaemonWire>();
  return nullptr;
}

}  // namespace perfbench
