// flashqosd: the QoS pipeline as a networked storage daemon.
//
// Loads the same experiment config flashqos_sim uses ([design] +
// [pipeline]; [workload] is ignored — the workload arrives over the
// wire), stands the pipeline up behind service::PipelineService, and
// serves the binary protocol in net/frame.hpp on a loopback TCP port.
//
//   flashqosd experiment.ini --port 7365 --serve-metrics=9137
//
// prints "flashqosd: listening on 127.0.0.1:<port>" once ready (scripts
// parse that line; --port 0 binds an ephemeral port). The daemon serves
// one stream-session: when every connected client has sent end-session
// (or on SIGTERM/SIGINT), it drains the pipeline to the end of the
// stream, answers the final completions and per-connection kDrained
// frames, prints the aggregate report, and exits 0.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <limits>
#include <thread>

#include "cli/options.hpp"
#include "net/server.hpp"
#include "obs/export.hpp"
#include "service/pipeline_service.hpp"
#include "util/config.hpp"

int main(int argc, char** argv) {
  using namespace flashqos;

  // Block the shutdown signals before any thread exists so every thread
  // inherits the mask and only the dedicated sigwait thread sees them.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  cli::Options opts("flashqosd",
                    "serve the QoS pipeline over a loopback TCP port");
  opts.integer("port", "N", "listen port (default 0 = ephemeral)", 0,
               std::numeric_limits<std::uint16_t>::max())
      .integer("dispatchers", "N",
               "dispatcher threads == max concurrent connections, 1..1024 "
               "(default 4)",
               1, 1024)
      .integer("inflight", "N",
               "per-connection in-flight cap before wire-level pushback "
               "(default 4096)",
               1, kU32Max)
      .integer("max-batch", "N",
               "largest submit batch a client may send (default 1024)", 1,
               kU32Max)
      .positional("experiment.ini", "experiment config ([design]+[pipeline]; "
                  "[workload] ignored — events arrive over the wire)", 1, 1)
      .obs_output_flags();
  opts.parse_or_exit(argc, argv);

  service::ServiceSetup setup;
  try {
    setup = service::build_service(Config::load(opts.positionals()[0]));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flashqosd: %s\n", e.what());
    return 1;
  }
  service::PipelineService svc(*setup.scheme, setup.options);

  net::ServerOptions so;
  // The registered ranges make every narrowing below lossless.
  so.port = static_cast<std::uint16_t>(opts.get_u64("port", 0));
  so.dispatchers = static_cast<std::size_t>(opts.get_u64("dispatchers", 4));
  so.inflight_cap = static_cast<std::uint32_t>(opts.get_u64("inflight", 4096));
  so.max_batch = static_cast<std::uint32_t>(opts.get_u64("max-batch", 1024));
  net::DaemonServer server(svc, so);
  if (!server.start()) {
    std::fprintf(stderr, "flashqosd: bind failed: %s\n",
                 server.last_error().c_str());
    return 1;
  }
  std::printf("flashqosd: listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  // SIGTERM/SIGINT force the drain; a session that ends on its own (all
  // clients sent end-session) makes wait_done() return without a signal,
  // so the watcher is detached and simply dies with the process.
  std::thread([&server, sigs] {
    int sig = 0;
    sigwait(&sigs, &sig);
    server.initiate_drain();
  }).detach();

  const core::StreamResult& res = server.wait_done();
  server.stop();

  std::printf(
      "flashqosd: drained — %llu requests over %llu connections "
      "(%llu pushbacks, %llu parse errors, %llu clamped arrivals)\n",
      static_cast<unsigned long long>(res.requests),
      static_cast<unsigned long long>(server.connections_total()),
      static_cast<unsigned long long>(server.pushbacks_sent()),
      static_cast<unsigned long long>(server.parse_errors()),
      static_cast<unsigned long long>(svc.clamped_events()));
  if (!obs::write_requested_outputs()) return 1;
  return 0;
}
