// Wire-protocol and accept-seam tests for flashqosd's data plane:
// frame round-trip properties over randomized batches, torn/partial
// reads, short writes through send_all, oversized-frame rejection,
// malformed frames counted in net.parse_errors, the acceptor
// stop/restart/leak regressions (the PR-8 HttpExporter defects, now fixed
// once in net::Acceptor), and a connection-manager stress run that TSan
// can chew on.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "decluster/schemes.hpp"
#include "design/constructions.hpp"
#include "net/acceptor.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "service/pipeline_service.hpp"
#include "util/time.hpp"

namespace flashqos::net {
namespace {

std::vector<WireEvent> random_events(std::mt19937& rng, std::size_t n) {
  std::uniform_int_distribution<std::uint64_t> u64;
  std::uniform_int_distribution<std::uint32_t> u32;
  std::vector<WireEvent> evs(n);
  for (auto& e : evs) {
    e.tag = u64(rng);
    e.time = static_cast<std::int64_t>(u64(rng) >> 2);  // <= kMaxEventTime
    e.block = u64(rng);
    e.device = u32(rng);
    e.size_blocks = u32(rng);
    e.tenant = u32(rng);
    e.flags = static_cast<std::uint8_t>(rng() & 1);
  }
  return evs;
}

std::vector<WireCompletion> random_completions(std::mt19937& rng,
                                               std::size_t n) {
  std::uniform_int_distribution<std::uint64_t> u64;
  std::vector<WireCompletion> cs(n);
  for (auto& c : cs) {
    c.tag = u64(rng);
    c.arrival = static_cast<std::int64_t>(u64(rng));
    c.dispatch = static_cast<std::int64_t>(u64(rng));
    c.start = static_cast<std::int64_t>(u64(rng));
    c.finish = static_cast<std::int64_t>(u64(rng));
    c.device = static_cast<std::int32_t>(u64(rng));
    c.q_ppm = static_cast<std::int32_t>(u64(rng));
    c.tenant = static_cast<std::uint32_t>(u64(rng));
    c.path = static_cast<std::uint8_t>(rng() & 0x7);
    c.flags = static_cast<std::uint8_t>(rng() & 0xf);
  }
  return cs;
}

/// Feed an encoded byte string through a FrameReader in `chunk`-sized
/// pieces and return every frame it yields.
std::vector<Frame> reassemble(const std::string& bytes, std::size_t chunk) {
  FrameReader r;
  std::vector<Frame> out;
  for (std::size_t off = 0; off < bytes.size(); off += chunk) {
    r.feed(bytes.data() + off, std::min(chunk, bytes.size() - off));
    while (auto f = r.next()) out.push_back(std::move(*f));
  }
  EXPECT_FALSE(r.error());
  return out;
}

void expect_events_eq(const std::vector<WireEvent>& a,
                      const std::vector<WireEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tag, b[i].tag) << i;
    EXPECT_EQ(a[i].time, b[i].time) << i;
    EXPECT_EQ(a[i].block, b[i].block) << i;
    EXPECT_EQ(a[i].device, b[i].device) << i;
    EXPECT_EQ(a[i].size_blocks, b[i].size_blocks) << i;
    EXPECT_EQ(a[i].tenant, b[i].tenant) << i;
    EXPECT_EQ(a[i].flags, b[i].flags) << i;
  }
}

TEST(Frame, SubmitRoundTripRandomizedBatches) {
  std::mt19937 rng(2026);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{257}, std::size_t{4096}}) {
    const auto evs = random_events(rng, n);
    const auto frames = reassemble(encode_submit(evs), 1 << 16);
    ASSERT_EQ(frames.size(), 1u) << n;
    EXPECT_EQ(frames[0].type, FrameType::kSubmit);
    std::vector<WireEvent> got;
    ASSERT_TRUE(decode_submit(frames[0], got)) << n;
    expect_events_eq(evs, got);
  }
}

TEST(Frame, CompletionsRoundTripRandomizedBatches) {
  std::mt19937 rng(7);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{1024}}) {
    const auto cs = random_completions(rng, n);
    const auto frames = reassemble(encode_completions(cs), 1 << 16);
    ASSERT_EQ(frames.size(), 1u);
    std::vector<WireCompletion> got;
    ASSERT_TRUE(decode_completions(frames[0], got)) << n;
    ASSERT_EQ(cs.size(), got.size());
    for (std::size_t i = 0; i < cs.size(); ++i) {
      EXPECT_EQ(cs[i].tag, got[i].tag) << i;
      EXPECT_EQ(cs[i].arrival, got[i].arrival) << i;
      EXPECT_EQ(cs[i].dispatch, got[i].dispatch) << i;
      EXPECT_EQ(cs[i].start, got[i].start) << i;
      EXPECT_EQ(cs[i].finish, got[i].finish) << i;
      EXPECT_EQ(cs[i].device, got[i].device) << i;
      EXPECT_EQ(cs[i].q_ppm, got[i].q_ppm) << i;
      EXPECT_EQ(cs[i].tenant, got[i].tenant) << i;
      EXPECT_EQ(cs[i].path, got[i].path) << i;
      EXPECT_EQ(cs[i].flags, got[i].flags) << i;
    }
  }
}

TEST(Frame, ControlFramesRoundTrip) {
  {
    const auto frames = reassemble(encode_hello(kProtocolVersion), 4);
    ASSERT_EQ(frames.size(), 1u);
    std::uint32_t v = 0;
    ASSERT_TRUE(decode_hello(frames[0], v));
    EXPECT_EQ(v, kProtocolVersion);
  }
  {
    const auto frames = reassemble(encode_flush(-12345678901234), 4);
    std::int64_t floor = 0;
    ASSERT_TRUE(decode_flush(frames.at(0), floor));
    EXPECT_EQ(floor, -12345678901234);
  }
  {
    WelcomeFrame w;
    w.devices = 13;
    w.copies = 3;
    w.interval_ns = 133000;
    w.max_batch = 1024;
    w.inflight_cap = 4096;
    const auto frames = reassemble(encode_welcome(w), 3);
    WelcomeFrame got;
    ASSERT_TRUE(decode_welcome(frames.at(0), got));
    EXPECT_EQ(got.version, w.version);
    EXPECT_EQ(got.devices, w.devices);
    EXPECT_EQ(got.copies, w.copies);
    EXPECT_EQ(got.interval_ns, w.interval_ns);
    EXPECT_EQ(got.max_batch, w.max_batch);
    EXPECT_EQ(got.inflight_cap, w.inflight_cap);
  }
  {
    const std::vector<WirePushback> ps = {{.tag = 9, .reason = 1},
                                          {.tag = ~std::uint64_t{0},
                                           .reason = 2}};
    const auto frames = reassemble(encode_pushbacks(ps), 5);
    std::vector<WirePushback> got;
    ASSERT_TRUE(decode_pushbacks(frames.at(0), got));
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].tag, 9u);
    EXPECT_EQ(got[1].reason, 2u);
  }
  {
    const auto frames = reassemble(encode_drained(777), 2);
    std::uint64_t served = 0;
    ASSERT_TRUE(decode_drained(frames.at(0), served));
    EXPECT_EQ(served, 777u);
  }
  {
    const auto frames =
        reassemble(encode_error(ErrorCode::kBadVersion, "speak v1"), 1);
    ErrorFrame e;
    ASSERT_TRUE(decode_error(frames.at(0), e));
    EXPECT_EQ(e.code, static_cast<std::uint16_t>(ErrorCode::kBadVersion));
    EXPECT_EQ(e.message, "speak v1");
  }
  {
    const auto frames = reassemble(encode_end_session(), 1);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type, FrameType::kEndSession);
    EXPECT_TRUE(frames[0].payload.empty());
  }
}

TEST(Frame, TornReadsNeverChangeTheFrames) {
  std::mt19937 rng(99);
  const auto evs = random_events(rng, 100);
  const auto cs = random_completions(rng, 50);
  std::string bytes = encode_hello() + encode_submit(evs) +
                      encode_flush(42) + encode_completions(cs) +
                      encode_end_session();
  // Every chunking — including one byte at a time, where every frame is
  // torn at every boundary — must reassemble the identical sequence.
  const auto want = reassemble(bytes, bytes.size());
  ASSERT_EQ(want.size(), 5u);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{17}, std::size_t{1000}}) {
    const auto got = reassemble(bytes, chunk);
    ASSERT_EQ(got.size(), want.size()) << "chunk=" << chunk;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].type, want[i].type) << chunk << "/" << i;
      EXPECT_EQ(got[i].payload, want[i].payload) << chunk << "/" << i;
    }
  }
}

TEST(Frame, OversizedLengthPoisonsTheReader) {
  // A length prefix over kMaxFrameBytes must refuse before allocating and
  // leave the reader dead: frame boundaries are gone.
  const std::uint32_t huge = static_cast<std::uint32_t>(kMaxFrameBytes + 1);
  char hdr[4];
  std::memcpy(hdr, &huge, 4);
  FrameReader r;
  r.feed(hdr, 4);
  EXPECT_EQ(r.next(), std::nullopt);
  EXPECT_TRUE(r.error());
  // Feeding a perfectly valid frame afterwards must not resurrect it.
  const auto ok = encode_hello();
  r.feed(ok.data(), ok.size());
  EXPECT_EQ(r.next(), std::nullopt);
  EXPECT_TRUE(r.error());
}

TEST(Frame, MalformedPayloadsRefuseToDecode) {
  // Truncated submit: count claims more entries than the payload holds.
  Frame f;
  f.type = FrameType::kSubmit;
  const std::uint32_t count = 1000;
  f.payload.assign(reinterpret_cast<const char*>(&count), 4);
  f.payload += "short";
  std::vector<WireEvent> evs;
  EXPECT_FALSE(decode_submit(f, evs));

  Frame c;
  c.type = FrameType::kCompletion;
  c.payload.assign(reinterpret_cast<const char*>(&count), 4);
  std::vector<WireCompletion> cs;
  EXPECT_FALSE(decode_completions(c, cs));

  Frame h;
  h.type = FrameType::kHello;
  h.payload = "xy";  // hello is exactly 4 bytes
  std::uint32_t v = 0;
  EXPECT_FALSE(decode_hello(h, v));

  Frame d;
  d.type = FrameType::kDrained;
  d.payload = "1234";  // drained is exactly 8 bytes
  std::uint64_t served = 0;
  EXPECT_FALSE(decode_drained(d, served));

  // An arrival time or flush floor past kMaxEventTime; the ceiling itself
  // decodes.
  WireEvent e;
  e.time = kMaxEventTime;
  ASSERT_TRUE(decode_submit(reassemble(encode_submit({&e, 1}), 64).at(0), evs));
  EXPECT_EQ(evs.at(0).time, kMaxEventTime);
  std::int64_t floor = 0;
  ASSERT_TRUE(decode_flush(reassemble(encode_flush(kMaxEventTime), 64).at(0), floor));
  for (const std::int64_t time :
       {kMaxEventTime + 1, std::numeric_limits<std::int64_t>::max()}) {
    e.time = time;
    EXPECT_FALSE(decode_submit(reassemble(encode_submit({&e, 1}), 64).at(0), evs))
        << time;
    EXPECT_FALSE(decode_flush(reassemble(encode_flush(time), 64).at(0), floor)) << time;
  }
}

TEST(SendAll, SurvivesShortWrites) {
  // A tiny send buffer forces send() to take partial bites; send_all must
  // keep going until every byte is on the wire.
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const int small = 4096;
  setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  std::string payload(1 << 20, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 131 + 7);
  }
  std::thread writer(
      [&] { EXPECT_TRUE(send_all(sv[0], payload)); ::close(sv[0]); });
  std::string got;
  char buf[8192];
  for (;;) {
    const ssize_t n = ::read(sv[1], buf, sizeof(buf));
    if (n <= 0) break;
    got.append(buf, static_cast<std::size_t>(n));
  }
  writer.join();
  ::close(sv[1]);
  EXPECT_EQ(got, payload);
}

std::size_t open_fd_count() {
  std::size_t n = 0;
  // /proc/self/fd enumeration; the dirent fd itself is transient but
  // constant across both samples, so the counts are comparable.
  for (int fd = 0; fd < 512; ++fd) {
    if (fcntl(fd, F_GETFD) != -1) ++n;
  }
  return n;
}

TEST(Acceptor, StopWithFullQueueDoesNotDeadlock) {
  // Regression for the exporter's original shutdown defect: every handler
  // busy (here: none at all), queue full, acceptor blocked in push().
  // stop() must close the queue first so the blocked push wakes.
  Acceptor a;
  ASSERT_TRUE(a.start({.queue_capacity = 1}));
  std::vector<int> clients;
  for (int i = 0; i < 4; ++i) {
    const int fd = connect_loopback(a.port());
    if (fd >= 0) clients.push_back(fd);
  }
  // Give the accept loop a chance to wedge on the full queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  a.stop();  // must return; the old code deadlocked here
  a.reap();
  for (const int fd : clients) ::close(fd);
  EXPECT_FALSE(a.running());
}

TEST(Acceptor, RestartWorksAndLeaksNoFds) {
  const std::size_t before = open_fd_count();
  for (int round = 0; round < 3; ++round) {
    Acceptor a;
    ASSERT_TRUE(a.start({.queue_capacity = 2}));
    const std::uint16_t port = a.port();
    ASSERT_NE(port, 0);
    // Leave accepted fds unpopped: reap() must close them, not leak them.
    std::vector<int> clients;
    for (int i = 0; i < 3; ++i) {
      const int fd = connect_loopback(port);
      ASSERT_GE(fd, 0);
      clients.push_back(fd);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    a.stop();
    a.reap();
    EXPECT_EQ(a.port(), 0);
    // Same object starts again on a fresh socket.
    ASSERT_TRUE(a.start({.queue_capacity = 2}));
    const int fd = connect_loopback(a.port());
    ASSERT_GE(fd, 0);
    const auto popped = a.next_client();
    ASSERT_TRUE(popped.has_value());
    ::close(*popped);
    ::close(fd);
    a.stop();
    a.reap();
    for (const int c : clients) ::close(c);
  }
  EXPECT_EQ(open_fd_count(), before);
}

// ---- daemon-level protocol behaviour --------------------------------------

struct DaemonFixture {
  design::BlockDesign d = design::make_9_3_1();
  decluster::DesignTheoretic scheme{d, true};
  service::PipelineService svc;
  DaemonServer server;

  explicit DaemonFixture(ServerOptions opts = {.dispatchers = 2})
      : svc(scheme, options()), server(svc, opts) {}

  static service::ServiceOptions options() {
    service::ServiceOptions so;
    so.pipeline.retrieval = core::RetrievalMode::kOnline;
    so.pipeline.admission = core::AdmissionMode::kDeterministic;
    so.pipeline.mapping = core::MappingMode::kModulo;
    so.meta.name = "net-test";
    return so;
  }
};

/// Send hello then `frame` on a fresh connection: true when the server
/// answers with a kMalformed error.
bool answers_malformed(DaemonFixture& fx, const std::string& frame) {
  const int fd = connect_loopback(fx.server.port());
  if (fd < 0) return false;
  bool malformed = false;
  if (send_all(fd, encode_hello()) && send_all(fd, frame)) {
    FrameReader r;
    char buf[4096];
    bool got_error = false;
    for (int spins = 0; spins < 100 && !got_error; ++spins) {
      const ssize_t n = recv_some(fd, buf, sizeof(buf), 100);
      if (n == 0) break;
      if (n < 0) continue;
      r.feed(buf, static_cast<std::size_t>(n));
      while (auto f = r.next()) {
        ErrorFrame e;
        if (f->type == FrameType::kError && decode_error(*f, e)) {
          got_error = true;
          malformed = e.code == static_cast<std::uint16_t>(ErrorCode::kMalformed);
        }
      }
    }
  }
  ::close(fd);
  return malformed;
}

TEST(DaemonServer, MalformedFrameAnswersErrorAndCounts) {
  DaemonFixture fx;
  ASSERT_TRUE(fx.server.start());
  // A submit whose count promises far more entries than the payload holds.
  std::string bad;
  const std::uint32_t len = 1 + 4;  // type + count, no entries
  const std::uint32_t count = 500;
  bad.append(reinterpret_cast<const char*>(&len), 4);
  bad.push_back(static_cast<char>(FrameType::kSubmit));
  bad.append(reinterpret_cast<const char*>(&count), 4);
  EXPECT_TRUE(answers_malformed(fx, bad));
  fx.server.stop();
  EXPECT_GE(fx.server.parse_errors(), 1u);
}

// A flush floor past kMaxEventTime is answered like any malformed frame.
// (A server serves one session, so this is its own server.)
TEST(DaemonServer, FlushPastTheCeilingIsMalformed) {
  DaemonFixture fx;
  ASSERT_TRUE(fx.server.start());
  EXPECT_TRUE(answers_malformed(fx, encode_flush(kMaxEventTime + 1)));
  fx.server.stop();
  EXPECT_EQ(fx.server.parse_errors(), 1u);
}

TEST(DaemonServer, SubmitBeforeHelloIsABadSequence) {
  DaemonFixture fx;
  ASSERT_TRUE(fx.server.start());
  const int fd = connect_loopback(fx.server.port());
  ASSERT_GE(fd, 0);
  const WireEvent ev{};
  ASSERT_TRUE(send_all(fd, encode_submit({&ev, 1})));
  FrameReader r;
  bool got_error = false;
  char buf[4096];
  for (int spins = 0; spins < 100 && !got_error; ++spins) {
    const ssize_t n = recv_some(fd, buf, sizeof(buf), 100);
    if (n == 0) break;
    if (n < 0) continue;
    r.feed(buf, static_cast<std::size_t>(n));
    while (auto f = r.next()) {
      if (f->type == FrameType::kError) {
        ErrorFrame e;
        ASSERT_TRUE(decode_error(*f, e));
        EXPECT_EQ(e.code, static_cast<std::uint16_t>(ErrorCode::kBadSequence));
        got_error = true;
      }
    }
  }
  EXPECT_TRUE(got_error);
  ::close(fd);
  fx.server.stop();
}

TEST(DaemonServer, ConnectionManagerStress) {
  // Many concurrent connections submitting through the MPSC ingress while
  // the writer threads route verdicts back: the schedule-sensitive part of
  // the daemon, sized for TSan. Every client must get exactly its own
  // completions and the session total must add up.
  constexpr std::size_t kConns = 8;
  constexpr std::size_t kPerConn = 50;
  DaemonFixture fx({.dispatchers = kConns});
  ASSERT_TRUE(fx.server.start());

  std::atomic<std::size_t> connected{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  std::vector<std::size_t> got(kConns, 0);
  // Bytes, not vector<bool>: the threads write distinct elements, which
  // bit-packing would turn into a shared-byte race.
  std::vector<std::uint8_t> ok(kConns, 0);
  for (std::size_t c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      Client cl;
      if (!cl.connect(fx.server.port())) return;
      connected.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      std::vector<WireEvent> evs(kPerConn);
      for (std::size_t i = 0; i < kPerConn; ++i) {
        evs[i].tag = c * 1000 + i;
        evs[i].time = 0;  // one interval; floor stays 0, nothing clamps
        evs[i].block = (c * 7 + i) % 36;
      }
      if (!cl.submit(evs)) return;
      if (!cl.finish()) return;
      got[c] = cl.completions.size();
      // Completions must be this connection's own tags, in order.
      bool mine = true;
      for (std::size_t i = 0; i < cl.completions.size(); ++i) {
        mine = mine && cl.completions[i].tag == c * 1000 + i;
      }
      ok[c] = mine ? 1 : 0;
    });
  }
  // All sessions must exist before any ends, or the daemon would begin
  // draining after the first finish().
  while (connected.load() < kConns) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  const auto& result = fx.server.wait_done();
  EXPECT_EQ(result.requests, kConns * kPerConn);
  for (std::size_t c = 0; c < kConns; ++c) {
    EXPECT_EQ(got[c], kPerConn) << "conn " << c;
    EXPECT_EQ(ok[c], 1) << "conn " << c;
  }
  EXPECT_EQ(fx.server.connections_total(), kConns);
  EXPECT_EQ(fx.server.dropped_completions(), 0u);
  fx.server.stop();
}

TEST(DaemonServer, ConnectBlocksUntilTheRealWelcomeLands) {
  // Regression: WelcomeFrame's fields default to valid-looking values
  // (version is kProtocolVersion), so a connect() that polls the welcome's
  // version returns before the daemon's frame arrives — handing callers a
  // welcome with max_batch == 0 and inflight_cap == 0. Receipt must be
  // tracked explicitly.
  DaemonFixture fx;
  ASSERT_TRUE(fx.server.start());
  Client cl;
  ASSERT_TRUE(cl.connect(fx.server.port()));
  EXPECT_EQ(cl.welcome().max_batch, ServerOptions{}.max_batch);
  EXPECT_EQ(cl.welcome().inflight_cap, ServerOptions{}.inflight_cap);
  EXPECT_EQ(cl.welcome().devices, 9u);
  EXPECT_EQ(cl.welcome().copies, 3u);
  ASSERT_TRUE(cl.finish());
  fx.server.stop();
}

TEST(DaemonServer, ClientSocketSendsWithoutDelay) {
  // A closed-loop client's flush must not sit behind its own submit frame
  // waiting for a delayed ACK.
  DaemonFixture fx;
  ASSERT_TRUE(fx.server.start());
  Client cl;
  ASSERT_TRUE(cl.connect(fx.server.port()));
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(cl.native_handle(), IPPROTO_TCP, TCP_NODELAY, &nodelay, &len),
            0);
  EXPECT_NE(nodelay, 0);
  ASSERT_TRUE(cl.finish());
  fx.server.stop();
}

TEST(DaemonServer, CapBoundaryClientIsNeverPushedBack) {
  // Regression: the server staged a completion for the writer BEFORE
  // decrementing the connection's in-flight count. A closed-loop client
  // riding exactly at the cap can receive that completion and submit into
  // the freed slot while the decrement is still pending, and the
  // dispatcher's stale count answered the compliant submit with an
  // inflight-cap pushback. Hammer the boundary: with the fixed ordering
  // a compliant client never sees pushback.
  ServerOptions opts;
  opts.dispatchers = 1;
  opts.inflight_cap = 2;
  DaemonFixture fx(opts);
  ASSERT_TRUE(fx.server.start());
  Client cl;
  ASSERT_TRUE(cl.connect(fx.server.port()));
  constexpr std::size_t kRequests = 2000;
  for (std::size_t i = 0; i < kRequests; ++i) {
    WireEvent ev;
    ev.tag = i;
    // Each submission advances the ingestion frontier one interval, so
    // earlier events keep completing and the window keeps cycling at the
    // cap boundary.
    ev.time = static_cast<std::int64_t>(i) * kBaseInterval;
    ev.block = (i * 5) % 36;
    ASSERT_TRUE(cl.submit({&ev, 1}));
  }
  ASSERT_TRUE(cl.finish());
  EXPECT_EQ(cl.completions.size(), kRequests);
  EXPECT_TRUE(cl.pushbacks.empty());
  EXPECT_EQ(fx.server.pushbacks_sent(), 0u);
  fx.server.stop();
}

}  // namespace
}  // namespace flashqos::net
