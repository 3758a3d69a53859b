#include "net/frame.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>

#include "util/expect.hpp"
#include "util/time.hpp"

namespace flashqos::net {

namespace {

// Little-endian scalars, stored and loaded whole with memcpy (free of
// alignment traps); a big-endian host swaps byte by byte. Per-byte appends
// were a measurable share of a daemon session's CPU, not noise beside the
// syscalls.

template <typename T>
void store(char* p, T v) {
  if constexpr (std::endian::native == std::endian::big) {
    auto u = static_cast<std::make_unsigned_t<T>>(v);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<char>(u & 0xff);
      u = static_cast<std::make_unsigned_t<T>>(u >> 8);
    }
  } else {
    std::memcpy(p, &v, sizeof(T));
  }
}

template <typename T>
[[nodiscard]] T load(const char* p) {
  if constexpr (std::endian::native == std::endian::big) {
    std::make_unsigned_t<T> u = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      u |= static_cast<std::make_unsigned_t<T>>(static_cast<unsigned char>(p[i]))
           << (8 * i);
    }
    return static_cast<T>(u);
  } else {
    T v{};
    std::memcpy(&v, p, sizeof(T));
    return v;
  }
}

/// One frame's bytes, sized up front: the header is written on
/// construction and put() fills the payload in place.
class FrameWriter {
 public:
  FrameWriter(FrameType type, std::size_t payload_bytes)
      : out_(5 + payload_bytes, '\0') {
    put(static_cast<std::uint32_t>(1 + payload_bytes));
    put(static_cast<std::uint8_t>(type));
  }

  template <typename T>
  void put(T v) {
    store(out_.data() + pos_, v);
    pos_ += sizeof(T);
  }

  void put_bytes(const char* data, std::size_t n) {
    std::memcpy(out_.data() + pos_, data, n);
    pos_ += n;
  }

  [[nodiscard]] std::string finish() && {
    FLASHQOS_ASSERT(pos_ == out_.size(), "frame size mismatch");
    return std::move(out_);
  }

 private:
  std::string out_;
  std::size_t pos_ = 0;
};

/// Cursor over a frame payload; any out-of-bounds read marks it bad.
struct Reader {
  const std::string& p;
  std::size_t pos = 0;
  bool ok = true;

  template <typename T>
  [[nodiscard]] T get() {
    if (pos + sizeof(T) > p.size()) {
      ok = false;
      return T{};
    }
    const T v = load<T>(p.data() + pos);
    pos += sizeof(T);
    return v;
  }

  /// Fully consumed with no short reads — every decoder requires it so
  /// trailing garbage is malformed, not silently ignored.
  [[nodiscard]] bool done() const { return ok && pos == p.size(); }
};

// Encoded entry sizes; the decoders check payloads against the same.
constexpr std::size_t kEventBytes = 8 + 8 + 8 + 4 + 4 + 4 + 1;
// 5 × i64 timestamps/tag + device/q_ppm/tenant + path + flags.
constexpr std::size_t kCompletionBytes = 5 * 8 + 3 * 4 + 2;
constexpr std::size_t kPushbackBytes = 8 + 1;

void put_event(FrameWriter& w, const WireEvent& e) {
  w.put(e.tag);
  w.put(e.time);
  w.put(e.block);
  w.put(e.device);
  w.put(e.size_blocks);
  w.put(e.tenant);
  w.put(e.flags);
}

void put_completion(FrameWriter& w, const WireCompletion& c) {
  w.put(c.tag);
  w.put(c.arrival);
  w.put(c.dispatch);
  w.put(c.start);
  w.put(c.finish);
  w.put(c.device);
  w.put(c.q_ppm);
  w.put(c.tenant);
  w.put(c.path);
  w.put(c.flags);
}

}  // namespace

std::string encode_hello(std::uint32_t version) {
  FrameWriter w(FrameType::kHello, 4);
  w.put(version);
  return std::move(w).finish();
}

std::string encode_submit(std::span<const WireEvent> events) {
  FrameWriter w(FrameType::kSubmit, 4 + events.size() * kEventBytes);
  w.put(static_cast<std::uint32_t>(events.size()));
  for (const auto& e : events) put_event(w, e);
  return std::move(w).finish();
}

std::string encode_flush(std::int64_t floor) {
  FrameWriter w(FrameType::kFlush, 8);
  w.put(floor);
  return std::move(w).finish();
}

std::string encode_end_session() {
  return FrameWriter(FrameType::kEndSession, 0).finish();
}

std::string encode_welcome(const WelcomeFrame& wf) {
  FrameWriter w(FrameType::kWelcome, 5 * 4 + 8);
  w.put(wf.version);
  w.put(wf.devices);
  w.put(wf.copies);
  w.put(wf.interval_ns);
  w.put(wf.max_batch);
  w.put(wf.inflight_cap);
  return std::move(w).finish();
}

std::string encode_completions(std::span<const WireCompletion> cs) {
  FrameWriter w(FrameType::kCompletion, 4 + cs.size() * kCompletionBytes);
  w.put(static_cast<std::uint32_t>(cs.size()));
  for (const auto& c : cs) put_completion(w, c);
  return std::move(w).finish();
}

std::string encode_pushbacks(std::span<const WirePushback> ps) {
  FrameWriter w(FrameType::kPushback, 4 + ps.size() * kPushbackBytes);
  w.put(static_cast<std::uint32_t>(ps.size()));
  for (const auto& b : ps) {
    w.put(b.tag);
    w.put(b.reason);
  }
  return std::move(w).finish();
}

std::string encode_drained(std::uint64_t served) {
  FrameWriter w(FrameType::kDrained, 8);
  w.put(served);
  return std::move(w).finish();
}

std::string encode_error(ErrorCode code, const std::string& msg) {
  const std::size_t len = std::min<std::size_t>(msg.size(), 0xffff);
  FrameWriter w(FrameType::kError, 4 + len);
  w.put(static_cast<std::uint16_t>(code));
  w.put(static_cast<std::uint16_t>(len));
  w.put_bytes(msg.data(), len);
  return std::move(w).finish();
}

std::optional<Frame> FrameReader::next() {
  if (error_) return std::nullopt;
  // Reclaim the consumed prefix once it dominates the buffer, so a
  // long-lived connection does not grow its buffer without bound.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  const std::size_t avail = buf_.size() - pos_;
  if (avail < 4) return std::nullopt;
  const auto len = load<std::uint32_t>(buf_.data() + pos_);
  if (len == 0 || len > kMaxFrameBytes) {
    // Frame boundaries are lost; poison the stream.
    error_ = true;
    return std::nullopt;
  }
  if (avail < 4 + static_cast<std::size_t>(len)) return std::nullopt;
  Frame f;
  f.type = static_cast<FrameType>(static_cast<unsigned char>(buf_[pos_ + 4]));
  f.payload.assign(buf_, pos_ + 5, len - 1);
  pos_ += 4 + len;
  return f;
}

bool decode_hello(const Frame& f, std::uint32_t& version) {
  if (f.type != FrameType::kHello) return false;
  Reader r{f.payload};
  version = r.get<std::uint32_t>();
  return r.done();
}

bool decode_submit(const Frame& f, std::vector<WireEvent>& out) {
  out.clear();
  if (f.type != FrameType::kSubmit) return false;
  Reader r{f.payload};
  const auto count = r.get<std::uint32_t>();
  // A count the payload cannot hold is malformed before any allocation
  // happens.
  if (!r.ok || f.payload.size() - r.pos != count * kEventBytes) return false;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    WireEvent e;
    e.tag = r.get<std::uint64_t>();
    e.time = r.get<std::int64_t>();
    e.block = r.get<std::uint64_t>();
    e.device = r.get<std::uint32_t>();
    e.size_blocks = r.get<std::uint32_t>();
    e.tenant = r.get<std::uint32_t>();
    e.flags = r.get<std::uint8_t>();
    if (e.time > kMaxEventTime) return false;
    out.push_back(e);
  }
  return r.done();
}

bool decode_flush(const Frame& f, std::int64_t& floor) {
  if (f.type != FrameType::kFlush) return false;
  Reader r{f.payload};
  floor = r.get<std::int64_t>();
  return r.done() && floor <= kMaxEventTime;
}

bool decode_welcome(const Frame& f, WelcomeFrame& out) {
  if (f.type != FrameType::kWelcome) return false;
  Reader r{f.payload};
  out.version = r.get<std::uint32_t>();
  out.devices = r.get<std::uint32_t>();
  out.copies = r.get<std::uint32_t>();
  out.interval_ns = r.get<std::int64_t>();
  out.max_batch = r.get<std::uint32_t>();
  out.inflight_cap = r.get<std::uint32_t>();
  return r.done();
}

bool decode_completions(const Frame& f, std::vector<WireCompletion>& out) {
  out.clear();
  if (f.type != FrameType::kCompletion) return false;
  Reader r{f.payload};
  const auto count = r.get<std::uint32_t>();
  if (!r.ok || f.payload.size() - r.pos != count * kCompletionBytes) return false;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    WireCompletion c;
    c.tag = r.get<std::uint64_t>();
    c.arrival = r.get<std::int64_t>();
    c.dispatch = r.get<std::int64_t>();
    c.start = r.get<std::int64_t>();
    c.finish = r.get<std::int64_t>();
    c.device = r.get<std::int32_t>();
    c.q_ppm = r.get<std::int32_t>();
    c.tenant = r.get<std::uint32_t>();
    c.path = r.get<std::uint8_t>();
    c.flags = r.get<std::uint8_t>();
    out.push_back(c);
  }
  return r.done();
}

bool decode_pushbacks(const Frame& f, std::vector<WirePushback>& out) {
  out.clear();
  if (f.type != FrameType::kPushback) return false;
  Reader r{f.payload};
  const auto count = r.get<std::uint32_t>();
  if (!r.ok || f.payload.size() - r.pos != count * kPushbackBytes) return false;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    WirePushback b;
    b.tag = r.get<std::uint64_t>();
    b.reason = r.get<std::uint8_t>();
    out.push_back(b);
  }
  return r.done();
}

bool decode_drained(const Frame& f, std::uint64_t& served) {
  if (f.type != FrameType::kDrained) return false;
  Reader r{f.payload};
  served = r.get<std::uint64_t>();
  return r.done();
}

bool decode_error(const Frame& f, ErrorFrame& out) {
  if (f.type != FrameType::kError) return false;
  Reader r{f.payload};
  out.code = r.get<std::uint16_t>();
  const auto len = r.get<std::uint16_t>();
  if (!r.ok || f.payload.size() - r.pos != len) return false;
  out.message = f.payload.substr(r.pos, len);
  return true;
}

}  // namespace flashqos::net
