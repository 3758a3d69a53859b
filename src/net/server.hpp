// flashqosd's serving layer: connections in, verdicts out.
//
// DaemonServer glues three seams together:
//
//  * net::Acceptor — the loopback listener (shared with obs::HttpExporter;
//    the PR-6 acceptor fixes live there once, for both).
//  * a dispatcher pool — each dispatcher pops one accepted socket and owns
//    that connection for its whole life: it reads frames (net/frame.hpp),
//    translates WireEvents into trace events, and feeds the facade.
//  * service::PipelineService — the thread-safe front of the QoS pipeline.
//    The server is the facade's ServedSink: completions come back on the
//    service thread in global ingestion order, one engine batch at a time,
//    and are routed per batch: each run of one connection's verdicts costs
//    one connection lookup, one in-flight decrement, one lock of that
//    connection's staging area and one writer wake-up, and the (conn, tag)
//    pair submitted with each event says where it goes.
//
// Overload is answered at the wire, never inside the pipeline:
//
//  * Per-connection in-flight cap: a submit that would exceed it is
//    answered with kPushback(kInflightCap) for every event in the batch —
//    the pipeline never sees them. Clients use the Welcome's inflight_cap
//    to run a closed loop; the pushback is the shed path when they don't.
//  * Draining: submits that race past drain are answered with
//    kPushback(kDraining).
//  * A connection that stops reading grows its writer backlog; past the
//    byte budget the connection is declared dead and its socket shut
//    (later verdicts are counted in net.dropped_completions) instead of
//    wedging the service thread, its writer, or stop().
//
// Session model: the pipeline replays ONE stream, so the daemon serves one
// session-generation. A connection ends its submissions with kEndSession
// (or by disconnecting); when every connection that ever existed has ended,
// the server stops accepting, drains the pipeline to the end of the
// stream, flushes the final completions, and answers kDrained(n) on every
// connection that asked. initiate_drain() (SIGTERM in flashqosd) forces
// the same path. wait_done() blocks until the session result is in.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/acceptor.hpp"
#include "net/frame.hpp"
#include "service/pipeline_service.hpp"

namespace flashqos::net {

struct ServerOptions {
  /// Listening port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Dispatcher threads == maximum concurrent connections (extra accepted
  /// sockets wait in the acceptor queue until a dispatcher frees up).
  std::size_t dispatchers = 4;
  /// Largest event count a single submit frame may carry (advertised in
  /// the Welcome; larger frames are a protocol error).
  std::uint32_t max_batch = 1024;
  /// Per-connection in-flight cap (advertised in the Welcome; submits
  /// beyond it are answered with pushback, not queued).
  std::uint32_t inflight_cap = 4096;
  /// Writer backlog budget per connection, in encoded bytes; a peer that
  /// stops reading past this is dead, not slow.
  std::size_t writer_budget_bytes = 8u << 20;
};

class DaemonServer final : public service::ServedSink {
 public:
  /// `svc` must be constructed but not started; the server starts it.
  DaemonServer(service::PipelineService& svc, ServerOptions opts);
  ~DaemonServer() override;
  DaemonServer(const DaemonServer&) = delete;
  DaemonServer& operator=(const DaemonServer&) = delete;

  /// Bind, start the facade, spawn the dispatcher pool. False (with
  /// last_error()) if the listener could not bind.
  bool start();

  /// Force the end of the session: stop accepting, shut every connection's
  /// read side, drain the pipeline, deliver final completions + kDrained.
  /// Idempotent; safe from any thread (flashqosd calls it on SIGTERM).
  void initiate_drain();

  /// Block until the session has drained and return the stream result.
  const core::StreamResult& wait_done();

  /// Tear everything down (implies initiate_drain + wait_done).
  void stop();

  [[nodiscard]] std::uint16_t port() const noexcept {
    return acceptor_.port();
  }
  [[nodiscard]] const std::string& last_error() const noexcept {
    return acceptor_.last_error();
  }
  [[nodiscard]] std::uint64_t connections_total() const noexcept {
    return conns_total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t parse_errors() const noexcept {
    return parse_errors_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t pushbacks_sent() const noexcept {
    return pushbacks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped_completions() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  // ServedSink (service thread): route each verdict to its connection.
  void on_served(const service::Served& s) override;
  void on_served_batch(std::span<const service::Served> batch) override;

 private:
  struct Conn;

  void dispatcher_loop();
  void handle_connection(int fd);
  void serve_frames(Conn& conn, int fd);
  void conn_finished(const std::shared_ptr<Conn>& conn);
  void maybe_drain();
  void drain_session();

  service::PipelineService& svc_;
  ServerOptions opts_;
  Acceptor acceptor_;
  std::vector<std::thread> dispatchers_;

  std::mutex conns_mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Conn>> conns_;
  std::atomic<std::uint64_t> next_conn_id_{1};  // 0 is the embedded caller

  std::atomic<std::uint64_t> conns_total_{0};
  std::atomic<std::uint64_t> active_submitters_{0};
  std::atomic<std::uint64_t> parse_errors_{0};
  std::atomic<std::uint64_t> pushbacks_{0};
  std::atomic<std::uint64_t> dropped_{0};

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  std::optional<core::StreamResult> result_;
};

/// WireEvent -> engine event (negative times clamp to 0; the service's
/// ingestion floor handles the rest of time discipline).
[[nodiscard]] trace::TraceEvent to_trace_event(const WireEvent& w) noexcept;

/// Engine outcome -> wire completion (the oracle compares these fields
/// double-for-double against the in-process replay).
[[nodiscard]] WireCompletion to_wire_completion(
    std::uint64_t tag, const core::RequestOutcome& out) noexcept;

/// Inverse of to_wire_completion (client side; oracle reassembly).
[[nodiscard]] core::RequestOutcome from_wire_completion(
    const WireCompletion& c) noexcept;

}  // namespace flashqos::net
