// Closed-loop daemon benchmark: flashqosd's serving stack end to end —
// loopback TCP, frame codec, dispatcher pool, MPSC ingress, the
// interval-clocked engine, and the writer path back — measured in the
// same process (BENCH_daemon.json records the numbers for this host).
//
// Three measurements:
//  (1) closed-loop throughput — C connections each keep a full in-flight
//      window (the Welcome's inflight_cap) of submitted events
//      outstanding, exactly the loop net::Client implements; the windows
//      sum past 10k in-flight requests. Reported: served requests per
//      wall second over the wire and each connection's peak window.
//  (2) overload — a deliberately misbehaving client (submit_raw, no
//      window) against a small in-flight cap, with a flooding tenant
//      behind a bounded WFQ queue: wire-level pushback (shed before the
//      pipeline), ECN marks, and tenant sheds are counted separately.
//  (3) /metrics — the observability HTTP exporter serves from the same
//      process while the daemon runs; the self-probe GET must succeed.
//
// The closed loop also reports the serving ledger: completions per
// verdict hand-off from the service thread to the server
// (service.served_batches) and per completion frame the writers send
// (net.completion_frames). The last line of output is machine-readable;
// `scripts/bench.sh daemon` regenerates BENCH_daemon.json from it.
//
// The numbers are transport + facade overhead on top of the engine
// (BENCH_stream.json is the engine alone); the identity contract for
// everything measured here is flashqos_verify --daemon's job.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_flags.hpp"
#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/http_exporter.hpp"
#include "obs/metrics.hpp"
#include "service/pipeline_service.hpp"
#include "util/table.hpp"

using namespace flashqos;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double>(dt).count();
}

service::ServiceOptions base_options() {
  service::ServiceOptions so;
  so.pipeline.retrieval = core::RetrievalMode::kOnline;
  so.pipeline.admission = core::AdmissionMode::kDeterministic;
  so.pipeline.mapping = core::MappingMode::kModulo;
  so.meta.name = "daemon-bench";
  return so;
}

struct ConnStats {
  std::size_t completions = 0;
  std::uint64_t peak_window = 0;
  bool ok = false;
};

/// Arrival clock shared by the closed-loop connections. The service
/// clamps any arrival below the highest time it has accepted, and its
/// dispatcher threads accept frames from different connections in no
/// fixed order; so a connection stamps its next range of intervals only
/// once every range stamped before it has been accepted (the service runs
/// in this process: submitted_events() is the acknowledgement). Ranges
/// then enter the engine in time order and no arrival is clamped. Flushes
/// promise only up to the next unstamped interval, the lowest arrival any
/// connection can still send.
class ArrivalClock {
 public:
  explicit ArrivalClock(const service::PipelineService& svc) : svc_(svc) {}

  /// Stamp `n` consecutive intervals and hand their first to `send`.
  template <typename Send>
  bool stamp(std::size_t n, Send&& send) {
    const std::lock_guard lock(mutex_);
    wait_accepted();
    const std::uint64_t base = next_;
    next_ += n;
    stamped_ += n;
    return send(base);
  }

  /// Hand `flush` the floor every unsent arrival is at or above.
  template <typename Flush>
  bool flush(Flush&& flush) {
    const std::lock_guard lock(mutex_);
    wait_accepted();
    return flush(next_);
  }

 private:
  void wait_accepted() const {
    while (svc_.submitted_events() < stamped_) std::this_thread::yield();
  }

  const service::PipelineService& svc_;
  std::mutex mutex_;
  std::uint64_t next_ = 0;     // next unstamped interval
  std::uint64_t stamped_ = 0;  // events stamped (and sent) so far
};

/// One closed-loop producer: submit `total` events, keeping up to the
/// Welcome's inflight_cap outstanding, one event per QoS interval from
/// the shared clock (inside the S = 5 budget). The part a correct client
/// of this protocol cannot skip: the producer sends kFlush whenever its
/// window is full. The daemon's engine never invents time — events at
/// the ingestion frontier dispatch only when the frontier moves, and with
/// every window in the fleet full nothing would move it.
void closed_loop_conn(std::uint16_t port, std::size_t conn_idx,
                      std::size_t total, ArrivalClock& clock,
                      std::atomic<std::size_t>& connected,
                      const std::atomic<bool>& go, ConnStats& stats) {
  net::Client cl;
  if (!cl.connect(port)) return;
  connected.fetch_add(1);
  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();

  const std::uint64_t cap = cl.welcome().inflight_cap;
  std::vector<net::WireEvent> evs(
      std::min<std::size_t>(1024, cl.welcome().max_batch));
  std::size_t sent = 0;
  while (sent < total) {
    const std::size_t n = std::min(evs.size(), total - sent);
    if (cl.outstanding() + n > cap) {
      // Window full: promise the floor, then wait for verdicts.
      const bool flushed = clock.flush([&](std::uint64_t floor) {
        return cl.flush(static_cast<std::int64_t>(floor * kBaseInterval));
      });
      if (!flushed || !cl.pump(250)) return;
      continue;
    }
    const bool submitted = clock.stamp(n, [&](std::uint64_t base) {
      for (std::size_t i = 0; i < n; ++i) {
        auto& e = evs[i];
        e.tag = sent + i;
        e.time = static_cast<std::int64_t>((base + i) * kBaseInterval);
        e.block = (conn_idx * 9 + sent + i) % 36;
        e.tenant = 0;
        e.flags = 1;
      }
      return cl.submit_raw({evs.data(), n});
    });
    if (!submitted) return;
    stats.peak_window = std::max(stats.peak_window, cl.outstanding());
    sent += n;
  }
  if (!cl.finish()) return;
  stats.completions = cl.completions.size();
  stats.ok = stats.completions == total;
}

std::uint64_t counter_value(const char* name) {
  const auto snap = obs::MetricRegistry::global().snapshot();
  const auto* c = snap.find_counter(name);
  return c != nullptr ? c->value : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  const auto d = design::make_9_3_1();
  const decluster::DesignTheoretic scheme(d, true);

  print_banner("flashqosd closed loop: loopback wire -> facade -> engine");

  // /metrics from the same process, alive across both legs.
  auto& exporter = obs::HttpExporter::global();
  const bool exporter_started = !exporter.running() && exporter.start();

  // (1) closed-loop throughput. The connections jointly offer one request
  // per QoS interval (inside the S = 5 budget: admission passes, so the
  // engine, not deferral backlog, is what's measured) and each keeps
  // inflight_cap submissions outstanding — the windows sum to 16384
  // possible in-flight, and the loop saturates them.
  const std::size_t conns = 4;
  const std::uint32_t inflight_cap = 4096;
  // Even the smoke run submits past the window cap so ctest exercises the
  // saturated-window liveness path, not just the ramp.
  const std::size_t per_conn = smoke ? 6'000 : 500'000;

  service::PipelineService svc(scheme, base_options());
  net::ServerOptions sopts;
  sopts.dispatchers = conns;
  sopts.inflight_cap = inflight_cap;
  net::DaemonServer server(svc, sopts);
  if (!server.start()) {
    std::printf("FAILED: daemon did not start: %s\n",
                server.last_error().c_str());
    return 1;
  }

  std::atomic<std::size_t> connected{0};
  std::atomic<bool> go{false};
  ArrivalClock clock(svc);
  std::vector<ConnStats> stats(conns);
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back(closed_loop_conn, server.port(), c, per_conn,
                         std::ref(clock), std::ref(connected),
                         std::cref(go), std::ref(stats[c]));
  }
  while (connected.load() < conns) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& t : threads) t.join();
  const double secs = seconds_since(t0);
  const auto& result = server.wait_done();

  std::size_t total_served = 0;
  std::uint64_t window_sum = 0;
  bool all_ok = true;
  Table table({"conn", "completions", "peak window"});
  for (std::size_t c = 0; c < conns; ++c) {
    table.add_row({std::to_string(c), std::to_string(stats[c].completions),
                   std::to_string(stats[c].peak_window)});
    total_served += stats[c].completions;
    window_sum += stats[c].peak_window;
    all_ok = all_ok && stats[c].ok;
  }
  table.print();
  if (!all_ok || result.requests != conns * per_conn) {
    std::printf("FAILED: served %zu of %zu submitted requests\n", total_served,
                conns * per_conn);
    return 1;
  }
  std::printf("closed loop: %zu requests over the wire in %.3f s — "
              "%.3f Mreq/s; in-flight window sum %llu (capacity %zu), "
              "wire pushbacks %llu\n",
              total_served, secs, total_served / secs / 1e6,
              static_cast<unsigned long long>(window_sum),
              conns * static_cast<std::size_t>(inflight_cap),
              static_cast<unsigned long long>(server.pushbacks_sent()));
  const std::uint64_t deferrals = counter_value("pipeline.deferral_events");
  std::printf("closed loop: service.clamped_events %llu, "
              "pipeline.deferral_events %llu\n",
              static_cast<unsigned long long>(svc.clamped_events()),
              static_cast<unsigned long long>(deferrals));
  if (svc.clamped_events() > 0) {
    std::printf("FAILED: %llu arrivals were clamped to the ingestion floor\n",
                static_cast<unsigned long long>(svc.clamped_events()));
    return 1;
  }
  server.stop();  // joins every writer: the frame count is complete
  const std::uint64_t handoffs = counter_value("service.served_batches");
  const std::uint64_t frames = counter_value("net.completion_frames");
  std::printf("closed loop: %llu verdict hand-offs (%.1f completions each), "
              "%llu completion frames (%.1f completions each)\n",
              static_cast<unsigned long long>(handoffs),
              handoffs > 0 ? static_cast<double>(total_served) / handoffs : 0.0,
              static_cast<unsigned long long>(frames),
              frames > 0 ? static_cast<double>(total_served) / frames : 0.0);

  std::uint64_t offered = 0;
  std::uint64_t wire_pushbacks = 0;
  std::uint64_t overload_served = 0;
  std::uint64_t marked = 0;
  std::uint64_t shed = 0;

  // (2) overload: a windowless client against a small wire cap, flooding
  // a bounded WFQ tenant queue. Three distinct overload answers, counted
  // separately: pushback at the wire (never entered the pipeline), ECN
  // marks (admitted, queue past the mark threshold), tenant sheds
  // (admitted stream, queue full).
  {
    auto so = base_options();
    so.meta.name = "daemon-bench-overload";
    so.pipeline.tenants = {
        {.name = "steady", .weight = 3.0, .reservation = 2},
        {.name = "flood", .weight = 1.0, .reservation = 0,
         .queue_capacity = 16, .mark_threshold = 12},
    };
    service::PipelineService osvc(scheme, so);
    net::ServerOptions oopts;
    oopts.dispatchers = 1;
    oopts.inflight_cap = 256;
    net::DaemonServer oserver(osvc, oopts);
    if (!oserver.start()) {
      std::printf("FAILED: overload daemon did not start\n");
      return 1;
    }
    net::Client cl;
    if (!cl.connect(oserver.port())) {
      std::printf("FAILED: overload client connect\n");
      return 1;
    }
    const std::size_t bursts = smoke ? 40 : 2000;
    std::vector<net::WireEvent> evs(64);
    std::uint64_t tag = 0;
    for (std::size_t b = 0; b < bursts; ++b) {
      for (std::size_t i = 0; i < evs.size(); ++i) {
        auto& e = evs[i];
        e.tag = tag++;
        // 64 arrivals per interval against S = 5: the flood tenant's
        // bounded queue marks, then sheds.
        e.time = static_cast<std::int64_t>(b * kBaseInterval);
        e.block = (b * 7 + i) % 36;
        e.tenant = (i % 8 != 0) ? 1u : 0u;  // 7/8 of the burst floods
        e.flags = 1;
      }
      if (!cl.submit_raw(evs)) break;
      (void)cl.pump(0);  // keep the socket drained; no window discipline
    }
    if (!cl.finish()) {
      std::printf("FAILED: overload session did not drain: %s\n",
                  cl.last_error().c_str());
      return 1;
    }
    const auto& ores = oserver.wait_done();
    for (const auto& u : ores.tenant_usage) {
      marked += u.marked;
      shed += u.shed;
    }
    std::printf("overload: %zu offered, %zu pushed back at the wire, "
                "%zu served; tenant queue marked %llu (ECN), shed %llu\n",
                static_cast<std::size_t>(bursts * evs.size()),
                cl.pushbacks.size(), cl.completions.size(),
                static_cast<unsigned long long>(marked),
                static_cast<unsigned long long>(shed));
    if (cl.pushbacks.empty() || marked == 0 || shed == 0) {
      std::printf("FAILED: overload run must provoke pushback, marks, and "
                  "sheds\n");
      return 1;
    }
    offered = bursts * evs.size();
    wire_pushbacks = cl.pushbacks.size();
    overload_served = cl.completions.size();
    oserver.stop();
  }

  // (3) /metrics self-probe, same process, after both legs recorded.
  if (exporter_started) {
    if (!exporter.self_probe()) {
      std::printf("FAILED: /metrics self-probe\n");
      return 1;
    }
    std::printf("/metrics: served from this process on port %u\n",
                static_cast<unsigned>(exporter.port()));
    exporter.stop();
  }

  const auto u = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
  std::printf(
      "\nmachine-readable: {\"closed_loop\":{\"requests\":%zu,\"seconds\":%.6f,"
      "\"window_sum\":%llu,\"window_capacity\":%zu,\"clamped\":%llu,"
      "\"deferral_events\":%llu,\"wire_pushbacks\":%llu,\"served_batches\":%llu,"
      "\"completion_frames\":%llu},\"overload\":{\"offered\":%llu,"
      "\"wire_pushbacks\":%llu,\"served\":%llu,\"ecn_marked\":%llu,"
      "\"tenant_shed\":%llu},\"metrics_probe\":\"%s\"}\n",
      total_served, secs, u(window_sum), conns * static_cast<std::size_t>(inflight_cap),
      u(svc.clamped_events()), u(deferrals), u(server.pushbacks_sent()), u(handoffs),
      u(frames), u(offered), u(wire_pushbacks), u(overload_served), u(marked), u(shed),
      exporter_started ? "ok" : "not started");
  return 0;
}
