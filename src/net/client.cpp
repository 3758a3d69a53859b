#include "net/client.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "net/acceptor.hpp"

namespace flashqos::net {

bool Client::connect(std::uint16_t port) {
  close();
  fd_ = connect_loopback(port);
  if (fd_ < 0) {
    error_ = "connect failed";
    return false;
  }
  // A closed-loop client's flush must not wait behind its own
  // unacknowledged submit frame (Nagle + delayed ACK).
  const int one = 1;
  if (::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    error_ = "cannot set TCP_NODELAY";
    close();
    return false;
  }
  if (!send_frame(encode_hello(kProtocolVersion))) return false;
  // The Welcome is the first frame on the wire; pump until it lands.
  while (!welcomed_) {
    if (!pump(-1)) {
      if (error_.empty()) error_ = "connection closed before welcome";
      return false;
    }
  }
  return true;
}

bool Client::submit(std::span<const WireEvent> events) {
  const std::uint32_t max_batch = std::max<std::uint32_t>(welcome_.max_batch, 1);
  std::size_t pos = 0;
  while (pos < events.size()) {
    const std::size_t n =
        std::min<std::size_t>(max_batch, events.size() - pos);
    // Closed loop: never let the window exceed the advertised cap, so the
    // daemon's shed path stays cold for a compliant client.
    while (outstanding_ + n > welcome_.inflight_cap) {
      if (!pump(-1)) return false;
    }
    if (!send_frame(encode_submit(events.subspan(pos, n)))) return false;
    outstanding_ += n;
    pos += n;
    // Opportunistically drain whatever already arrived (keeps the
    // daemon's writer queues short without blocking the submit path).
    if (!pump(0)) return false;
  }
  return true;
}

bool Client::submit_raw(std::span<const WireEvent> events) {
  if (!send_frame(encode_submit(events))) return false;
  outstanding_ += events.size();
  return true;
}

bool Client::flush(std::int64_t floor) {
  return send_frame(encode_flush(floor));
}

bool Client::finish() {
  if (!send_frame(encode_end_session())) return false;
  while (!drained_) {
    if (!pump(-1)) return false;
  }
  return true;
}

bool Client::pump(int timeout_ms) {
  if (fd_ < 0) return false;
  for (;;) {
    auto f = reader_.next();
    if (!f.has_value()) break;
    switch (f->type) {
      case FrameType::kWelcome:
        if (!decode_welcome(*f, welcome_)) {
          error_ = "malformed welcome";
          return false;
        }
        welcomed_ = true;
        break;
      case FrameType::kCompletion: {
        std::vector<WireCompletion> cs;
        if (!decode_completions(*f, cs)) {
          error_ = "malformed completion batch";
          return false;
        }
        outstanding_ -= std::min<std::uint64_t>(outstanding_, cs.size());
        completions.insert(completions.end(), cs.begin(), cs.end());
        break;
      }
      case FrameType::kPushback: {
        std::vector<WirePushback> ps;
        if (!decode_pushbacks(*f, ps)) {
          error_ = "malformed pushback batch";
          return false;
        }
        outstanding_ -= std::min<std::uint64_t>(outstanding_, ps.size());
        pushbacks.insert(pushbacks.end(), ps.begin(), ps.end());
        break;
      }
      case FrameType::kDrained:
        if (!decode_drained(*f, served_)) {
          error_ = "malformed drained frame";
          return false;
        }
        drained_ = true;
        break;
      case FrameType::kError: {
        ErrorFrame e;
        error_ = decode_error(*f, e)
                     ? "daemon error " + std::to_string(e.code) + ": " +
                           e.message
                     : "malformed error frame";
        return false;
      }
      default:
        error_ = "unexpected frame type from daemon";
        return false;
    }
  }
  if (reader_.error()) {
    error_ = "poisoned frame stream from daemon";
    return false;
  }
  // Nothing more is coming after kDrained; don't block on a socket the
  // daemon is about to close.
  if (drained_) return true;
  char buf[16384];
  const ssize_t n = recv_some(fd_, buf, sizeof(buf), timeout_ms);
  if (n > 0) {
    reader_.feed(buf, static_cast<std::size_t>(n));
    return pump(0);  // dispatch what we just read (recursion depth 1)
  }
  if (n == 0) {
    error_ = drained_ ? error_ : "connection closed";
    return false;
  }
  // n < 0: timeout (fine for a 0/short wait) or hard error; a blocking
  // pump treats it as an error since there is no other wakeup path.
  if (timeout_ms < 0) {
    error_ = "socket error";
    return false;
  }
  return true;
}

bool Client::send_frame(const std::string& frame) {
  if (fd_ < 0) {
    error_ = "not connected";
    return false;
  }
  if (!send_all(fd_, frame)) {
    error_ = "send failed";
    return false;
  }
  return true;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_ = FrameReader{};
  welcome_ = WelcomeFrame{};
  welcomed_ = false;
  drained_ = false;
  served_ = 0;
  outstanding_ = 0;
  error_.clear();
  completions.clear();
  pushbacks.clear();
}

}  // namespace flashqos::net
