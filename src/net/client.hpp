// Loopback client for the flashqosd wire protocol.
//
// A thin, synchronous, single-threaded speaker of net/frame.hpp used by
// everything in-tree that drives a daemon: the verify oracle
// (flashqos_verify --daemon), the closed-loop benchmark
// (bench/daemon_closed_loop), and the check.sh smoke stage. It implements
// the closed loop the Welcome advertises: submit() keeps at most
// inflight_cap events outstanding, reading completions off the socket
// whenever the window is full, so a well-behaved client never triggers
// the wire-level shed path (and a test that wants pushbacks can exceed
// the window deliberately via submit_raw()).
//
// Completions and pushbacks accumulate in `completions` / `pushbacks` in
// the order the daemon sent them — which for a single-connection session
// is the engine's trace order, the property the daemon oracle checks.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/frame.hpp"

namespace flashqos::net {

class Client {
 public:
  Client() = default;
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect to 127.0.0.1:port and run the hello/welcome handshake.
  bool connect(std::uint16_t port);

  /// Submit events, honoring max_batch and the in-flight window (blocks
  /// reading completions while the window is full). False on any socket
  /// or protocol error (see last_error()).
  bool submit(std::span<const WireEvent> events);

  /// Send one submit frame as-is — no window, no chunking. For tests that
  /// want to provoke the daemon's pushback / error paths.
  bool submit_raw(std::span<const WireEvent> events);

  /// Raise the daemon's ingestion floor (promise: no later event below it).
  bool flush(std::int64_t floor);

  /// End the session and read until the daemon answers kDrained (all
  /// completions for this connection are in `completions` then).
  bool finish();

  /// Read and dispatch whatever is available within `timeout_ms`
  /// (-1 = wait indefinitely). False on close, error frame, or poisoned
  /// stream; true if at least the wait completed (possibly dispatching
  /// nothing on timeout).
  bool pump(int timeout_ms);

  void close();

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }
  /// The connected socket (-1 when not connected).
  [[nodiscard]] int native_handle() const noexcept { return fd_; }
  [[nodiscard]] const WelcomeFrame& welcome() const noexcept {
    return welcome_;
  }
  [[nodiscard]] bool drained() const noexcept { return drained_; }
  [[nodiscard]] std::uint64_t served() const noexcept { return served_; }
  [[nodiscard]] std::uint64_t outstanding() const noexcept {
    return outstanding_;
  }
  [[nodiscard]] const std::string& last_error() const noexcept {
    return error_;
  }

  std::vector<WireCompletion> completions;
  std::vector<WirePushback> pushbacks;

 private:
  bool send_frame(const std::string& frame);

  int fd_ = -1;
  FrameReader reader_;
  WelcomeFrame welcome_{};
  // WelcomeFrame's fields default to valid-looking values (version is
  // kProtocolVersion), so receipt has to be tracked explicitly — connect()
  // must not return until the daemon's real limits have landed.
  bool welcomed_ = false;
  bool drained_ = false;
  std::uint64_t served_ = 0;
  std::uint64_t outstanding_ = 0;
  std::string error_;
};

}  // namespace flashqos::net
