#include "net/frame.hpp"

#include <cstring>

#include "util/time.hpp"

namespace flashqos::net {

namespace {

// Little-endian scalar append/read, byte by byte — portable and free of
// alignment traps. The hot path sends batches, so the per-byte cost is
// dwarfed by the syscall either side of it.

template <typename T>
void put(std::string& out, T v) {
  auto u = static_cast<std::make_unsigned_t<T>>(v);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<char>(u & 0xff));
    u = static_cast<std::make_unsigned_t<T>>(u >> 8);
  }
}

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
    std::make_unsigned_t<T> u = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      u |= static_cast<std::make_unsigned_t<T>>(
               static_cast<unsigned char>(p[pos + i]))
           << (8 * i);
    }
    pos += sizeof(T);
    return static_cast<T>(u);
  }

  /// Fully consumed with no short reads — every decoder requires it so
  /// trailing garbage is malformed, not silently ignored.
  [[nodiscard]] bool done() const { return ok && pos == p.size(); }
};

[[nodiscard]] std::string finish(FrameType type, std::string payload) {
  std::string out;
  out.reserve(5 + payload.size());
  put<std::uint32_t>(out, static_cast<std::uint32_t>(1 + payload.size()));
  put<std::uint8_t>(out, static_cast<std::uint8_t>(type));
  out += payload;
  return out;
}

void put_event(std::string& out, const WireEvent& e) {
  put(out, e.tag);
  put(out, e.time);
  put(out, e.block);
  put(out, e.device);
  put(out, e.size_blocks);
  put(out, e.tenant);
  put(out, e.flags);
}

void put_completion(std::string& out, const WireCompletion& c) {
  put(out, c.tag);
  put(out, c.arrival);
  put(out, c.dispatch);
  put(out, c.start);
  put(out, c.finish);
  put(out, c.device);
  put(out, c.q_ppm);
  put(out, c.tenant);
  put(out, c.path);
  put(out, c.flags);
}

}  // namespace

std::string encode_hello(std::uint32_t version) {
  std::string p;
  put(p, version);
  return finish(FrameType::kHello, std::move(p));
}

std::string encode_submit(std::span<const WireEvent> events) {
  std::string p;
  put(p, static_cast<std::uint32_t>(events.size()));
  for (const auto& e : events) put_event(p, e);
  return finish(FrameType::kSubmit, std::move(p));
}

std::string encode_flush(std::int64_t floor) {
  std::string p;
  put(p, floor);
  return finish(FrameType::kFlush, std::move(p));
}

std::string encode_end_session() {
  return finish(FrameType::kEndSession, {});
}

std::string encode_welcome(const WelcomeFrame& w) {
  std::string p;
  put(p, w.version);
  put(p, w.devices);
  put(p, w.copies);
  put(p, w.interval_ns);
  put(p, w.max_batch);
  put(p, w.inflight_cap);
  return finish(FrameType::kWelcome, std::move(p));
}

std::string encode_completions(std::span<const WireCompletion> cs) {
  std::string p;
  put(p, static_cast<std::uint32_t>(cs.size()));
  for (const auto& c : cs) put_completion(p, c);
  return finish(FrameType::kCompletion, std::move(p));
}

std::string encode_pushbacks(std::span<const WirePushback> ps) {
  std::string p;
  put(p, static_cast<std::uint32_t>(ps.size()));
  for (const auto& b : ps) {
    put(p, b.tag);
    put(p, b.reason);
  }
  return finish(FrameType::kPushback, std::move(p));
}

std::string encode_drained(std::uint64_t served) {
  std::string p;
  put(p, served);
  return finish(FrameType::kDrained, std::move(p));
}

std::string encode_error(ErrorCode code, const std::string& msg) {
  std::string p;
  put(p, static_cast<std::uint16_t>(code));
  put(p, static_cast<std::uint16_t>(msg.size()));
  p += msg.substr(0, 0xffff);
  return finish(FrameType::kError, std::move(p));
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
  std::uint32_t len = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(buf_[pos_ + i]))
           << (8 * i);
  }
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
  // Each entry is 37 bytes; a count the payload cannot hold is malformed
  // before any allocation happens.
  constexpr std::size_t kEntryBytes = 37;
  if (!r.ok || f.payload.size() - r.pos != count * kEntryBytes) return false;
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
  // 5 × i64 timestamps/tag + device/q_ppm/tenant + path + flags.
  constexpr std::size_t kEntryBytes = 5 * 8 + 3 * 4 + 2;
  if (!r.ok || f.payload.size() - r.pos != count * kEntryBytes) return false;
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
  constexpr std::size_t kEntryBytes = 9;
  if (!r.ok || f.payload.size() - r.pos != count * kEntryBytes) return false;
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
