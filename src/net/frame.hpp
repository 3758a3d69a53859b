// flashqosd's binary wire protocol: length-prefixed frames.
//
// Framing: every frame is [u32 length][u8 type][payload], length counting
// the type byte plus the payload, all integers little-endian. A frame
// larger than kMaxFrameBytes is a protocol violation — the decoder refuses
// it outright (a 4-byte prefix must never make the server allocate
// unbounded memory). Torn reads are normal: FrameReader accumulates bytes
// and yields a frame only when it is whole.
//
// Request frames (client → server):
//   kHello       u32 protocol_version — must open every session.
//   kSubmit      u32 count, count × WireEvent — a read/write batch. Each
//                entry carries the client's opaque tag, echoed on its
//                verdict, and the event's simulated arrival time (the
//                daemon clamps times below its ingestion frontier; a
//                time past kMaxEventTime, util/time.hpp, is malformed).
//   kFlush       i64 floor — promise that every future event of this
//                session arrives at or after `floor`: lets the daemon
//                dispatch (and answer) everything strictly below it
//                without waiting for more input. A floor past
//                kMaxEventTime is malformed.
//   kEndSession  end of the request stream: the daemon drains the
//                pipeline, flushes every outstanding completion, then
//                answers kDrained.
//
// Response frames (server → client):
//   kWelcome     protocol version + array shape + the session's batch and
//                in-flight caps.
//   kCompletion  u32 count, count × WireCompletion — admission verdict +
//                completion with latency attribution: arrival/dispatch/
//                start/finish timestamps (queue, schedule, service stages
//                are their pairwise deltas), serving device, retrieval
//                path, the statistical-admission Q estimate (ppm), and
//                the ECN mark / shed / failed flags.
//   kPushback    u32 count, count × {tag, reason} — wire-level overload
//                verdicts: the request never entered the pipeline
//                (per-connection in-flight cap, or the daemon draining).
//   kDrained     u64 served — answer to kEndSession.
//   kError       u16 code + message; the server closes the connection
//                after sending one (framing violations are not
//                recoverable mid-stream). Malformed frames are counted in
//                the net.parse_errors counter, mirroring
//                trace.parse_errors.
//
// This header is deliberately free of core/trace/obs dependencies (the
// obs library sits *below* net_core in the DAG): wire structs mirror
// trace::TraceEvent / core::RequestOutcome field-for-field and the
// server/client translate at the boundary.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace flashqos::net {

inline constexpr std::uint32_t kProtocolVersion = 1;
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kSubmit = 2,
  kFlush = 3,
  kEndSession = 4,
  kWelcome = 65,
  kCompletion = 66,
  kPushback = 67,
  kDrained = 68,
  kError = 69,
};

enum class PushbackReason : std::uint8_t {
  kInflightCap = 1,  // per-connection in-flight cap reached: shed at the wire
  kDraining = 2,     // the daemon is draining; no new work accepted
};

enum class ErrorCode : std::uint16_t {
  kMalformed = 1,    // payload did not decode
  kTooLarge = 2,     // frame length over kMaxFrameBytes
  kBadVersion = 3,   // hello version mismatch
  kBadSequence = 4,  // e.g. submit before hello
};

/// trace::TraceEvent plus the client's opaque tag. `flags` bit 0 = is_read.
struct WireEvent {
  std::uint64_t tag = 0;
  std::int64_t time = 0;
  std::uint64_t block = 0;
  std::uint32_t device = 0;
  std::uint32_t size_blocks = 1;
  std::uint32_t tenant = 0;
  std::uint8_t flags = 1;
};

/// core::RequestOutcome on the wire. `flags`: bit0 failed, bit1 is_write,
/// bit2 fim_matched, bit3 wfq_marked. `path` is core::RetrievalPath.
struct WireCompletion {
  std::uint64_t tag = 0;
  std::int64_t arrival = 0;
  std::int64_t dispatch = 0;
  std::int64_t start = 0;
  std::int64_t finish = 0;
  std::int32_t device = -1;
  std::int32_t q_ppm = 0;
  std::uint32_t tenant = 0;
  std::uint8_t path = 0;
  std::uint8_t flags = 0;
};

struct WirePushback {
  std::uint64_t tag = 0;
  std::uint8_t reason = 0;
};

struct WelcomeFrame {
  std::uint32_t version = kProtocolVersion;
  std::uint32_t devices = 0;
  std::uint32_t copies = 0;
  std::int64_t interval_ns = 0;  // the QoS interval T
  std::uint32_t max_batch = 0;   // submit entries per frame the server takes
  std::uint32_t inflight_cap = 0;
};

struct ErrorFrame {
  std::uint16_t code = 0;
  std::string message;
};

// ---- encoding (returns a complete length-prefixed frame) ------------------

[[nodiscard]] std::string encode_hello(std::uint32_t version = kProtocolVersion);
[[nodiscard]] std::string encode_submit(std::span<const WireEvent> events);
[[nodiscard]] std::string encode_flush(std::int64_t floor);
[[nodiscard]] std::string encode_end_session();
[[nodiscard]] std::string encode_welcome(const WelcomeFrame& w);
[[nodiscard]] std::string encode_completions(std::span<const WireCompletion> cs);
[[nodiscard]] std::string encode_pushbacks(std::span<const WirePushback> ps);
[[nodiscard]] std::string encode_drained(std::uint64_t served);
[[nodiscard]] std::string encode_error(ErrorCode code, const std::string& msg);

// ---- framing decoder ------------------------------------------------------

struct Frame {
  FrameType type{};
  std::string payload;
};

/// Incremental frame assembly over a byte stream. feed() bytes as they
/// arrive (any fragmentation); next() yields whole frames in order. An
/// oversized length prefix poisons the reader permanently (error() true) —
/// the connection must be dropped, since frame boundaries are lost.
class FrameReader {
 public:
  void feed(const char* data, std::size_t n) { buf_.append(data, n); }

  [[nodiscard]] std::optional<Frame> next();

  [[nodiscard]] bool error() const noexcept { return error_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  bool error_ = false;
};

// ---- payload decoding (false = malformed; count in net.parse_errors) ------

[[nodiscard]] bool decode_hello(const Frame& f, std::uint32_t& version);
[[nodiscard]] bool decode_submit(const Frame& f, std::vector<WireEvent>& out);
[[nodiscard]] bool decode_flush(const Frame& f, std::int64_t& floor);
[[nodiscard]] bool decode_welcome(const Frame& f, WelcomeFrame& out);
[[nodiscard]] bool decode_completions(const Frame& f,
                                      std::vector<WireCompletion>& out);
[[nodiscard]] bool decode_pushbacks(const Frame& f,
                                    std::vector<WirePushback>& out);
[[nodiscard]] bool decode_drained(const Frame& f, std::uint64_t& served);
[[nodiscard]] bool decode_error(const Frame& f, ErrorFrame& out);

}  // namespace flashqos::net
