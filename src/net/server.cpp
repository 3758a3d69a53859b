#include "net/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <span>
#include <utility>

#include "obs/metrics.hpp"
#include "util/expect.hpp"

namespace flashqos::net {

namespace {

void bump(const char* name, std::uint64_t n = 1) {
  if constexpr (obs::kEnabled) {
    if (n > 0) obs::MetricRegistry::global().counter(name).inc(n);
  }
}

/// The per-frame counters, resolved once: bump() looks its counter up by
/// name under the registry mutex on every call.
struct FrameCounters {
  obs::Counter& submit_batches;
  obs::Counter& completion_frames;
};

FrameCounters& frame_counters() {
  static FrameCounters c{
      obs::MetricRegistry::global().counter("net.submit_batches"),
      obs::MetricRegistry::global().counter("net.completion_frames")};
  return c;
}

}  // namespace

trace::TraceEvent to_trace_event(const WireEvent& w) noexcept {
  trace::TraceEvent ev;
  ev.time = std::max<std::int64_t>(w.time, 0);
  ev.block = w.block;
  ev.device = w.device;
  ev.size_blocks = w.size_blocks;
  ev.is_read = (w.flags & 0x1) != 0;
  ev.tenant = w.tenant;
  return ev;
}

WireCompletion to_wire_completion(std::uint64_t tag,
                                  const core::RequestOutcome& out) noexcept {
  WireCompletion c;
  c.tag = tag;
  c.arrival = out.arrival;
  c.dispatch = out.dispatch;
  c.start = out.start;
  c.finish = out.finish;
  c.device = static_cast<std::int32_t>(out.device);
  c.q_ppm = out.q_ppm;
  c.tenant = out.tenant;
  c.path = static_cast<std::uint8_t>(out.path);
  c.flags = static_cast<std::uint8_t>((out.failed ? 0x1 : 0) |
                                      (out.is_write ? 0x2 : 0) |
                                      (out.fim_matched ? 0x4 : 0) |
                                      (out.wfq_marked ? 0x8 : 0));
  return c;
}

core::RequestOutcome from_wire_completion(const WireCompletion& c) noexcept {
  core::RequestOutcome out;
  out.arrival = c.arrival;
  out.dispatch = c.dispatch;
  out.start = c.start;
  out.finish = c.finish;
  out.device = static_cast<DeviceId>(c.device);
  out.q_ppm = c.q_ppm;
  out.tenant = c.tenant;
  out.path = static_cast<core::RetrievalPath>(c.path);
  out.failed = (c.flags & 0x1) != 0;
  out.is_write = (c.flags & 0x2) != 0;
  out.fim_matched = (c.flags & 0x4) != 0;
  out.wfq_marked = (c.flags & 0x8) != 0;
  return out;
}

/// Per-connection state. The reader (a dispatcher thread) owns the frame
/// loop; a dedicated writer thread owns the socket's write side so the
/// service thread never blocks on a peer. All outbound traffic funnels
/// through one mutex-guarded staging area: completions batch naturally
/// (each engine batch's run for this connection is appended under one
/// lock, and whatever accumulated while the writer was in send_all goes
/// out as one frame), control frames keep their order relative to the
/// completions enqueued around them.
struct DaemonServer::Conn {
  std::uint64_t id = 0;
  int fd = -1;

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<WireCompletion> completions;  // batched into one frame
  std::vector<WirePushback> pushbacks;      // likewise
  std::deque<std::string> control;          // welcome / error
  std::string drained_frame;                // sent last, on writer exit
  std::size_t queued_bytes = 0;
  bool closed = false;  // no more writes will be queued
  bool dead = false;    // peer unresponsive or gone; drop instead of queue

  std::thread writer;
  std::atomic<std::uint64_t> outstanding{0};  // submitted - answered
  std::atomic<std::uint64_t> served{0};
  bool counted_active = false;  // holds one active_submitters_ slot

  /// Declare the peer dead (mutex held). Shutting the socket both ways
  /// wakes a writer blocked in send_all on a peer that stopped reading and
  /// a reader blocked in recv, so the connection is reaped instead of
  /// holding up stop(). The fd stays open until conn_finished closes it.
  void mark_dead() {
    dead = true;
    ::shutdown(fd, SHUT_RDWR);
    cv.notify_all();
  }

  /// Stage one run of verdicts (cheap struct copies; the writer encodes)
  /// under one lock and one wake-up, sent after the lock is released so
  /// the writer does not wake into a held mutex. False when the connection
  /// is dead or past budget: the whole run is dropped.
  bool queue_completions(std::span<const service::Served> run,
                         std::size_t budget) {
    {
      const std::unique_lock<std::mutex> lock(mutex);
      if (closed || dead) return false;
      if (queued_bytes > budget) {
        mark_dead();  // peer stopped reading; reap below
        return false;
      }
      for (const service::Served& s : run) {
        completions.push_back(to_wire_completion(s.tag, s.out));
      }
      queued_bytes += run.size() * 54;  // encoded WireCompletion size
    }
    cv.notify_all();
    return true;
  }

  void queue_pushbacks(std::vector<WirePushback> ps, std::size_t budget) {
    const std::unique_lock<std::mutex> lock(mutex);
    if (closed || dead) return;
    if (queued_bytes > budget) {
      mark_dead();
      return;
    }
    queued_bytes += ps.size() * 9;
    pushbacks.insert(pushbacks.end(), ps.begin(), ps.end());
    cv.notify_all();
  }

  void queue_control(std::string frame) {
    const std::unique_lock<std::mutex> lock(mutex);
    if (closed || dead) return;
    queued_bytes += frame.size();
    control.push_back(std::move(frame));
    cv.notify_all();
  }

  /// Stage the final kDrained frame. It must be the last thing on the
  /// wire — "all your completions have been delivered" — so it does not
  /// ride the control deque (which the writer emits *before* staged
  /// completions, the order the Welcome handshake needs): the writer
  /// sends it on its way out, after every staged frame has gone.
  void queue_drained(std::string frame) {
    const std::unique_lock<std::mutex> lock(mutex);
    if (closed || dead) return;
    drained_frame = std::move(frame);
    cv.notify_all();
  }

  /// Close the queue; the writer exits once everything queued is sent.
  void close_queue() {
    const std::unique_lock<std::mutex> lock(mutex);
    closed = true;
    cv.notify_all();
  }

  void writer_loop() {
    for (;;) {
      std::vector<WireCompletion> cs;
      std::vector<WirePushback> ps;
      std::deque<std::string> ctl;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this] {
          return closed || dead || !completions.empty() ||
                 !pushbacks.empty() || !control.empty();
        });
        if (dead) return;
        if (closed && completions.empty() && pushbacks.empty() &&
            control.empty()) {
          if (!drained_frame.empty()) (void)send_all(fd, drained_frame);
          return;
        }
        cs.swap(completions);
        ps.swap(pushbacks);
        ctl.swap(control);
        queued_bytes = 0;
      }
      std::string out;
      for (auto& f : ctl) out += f;
      if (!ps.empty()) out += encode_pushbacks(ps);
      if (!cs.empty()) {
        out += encode_completions(cs);
        if constexpr (obs::kEnabled) frame_counters().completion_frames.inc();
      }
      if (!out.empty() && !send_all(fd, out)) {
        const std::unique_lock<std::mutex> lock(mutex);
        mark_dead();
        return;
      }
    }
  }
};

DaemonServer::DaemonServer(service::PipelineService& svc, ServerOptions opts)
    : svc_(svc), opts_(std::move(opts)) {
  FLASHQOS_EXPECT(opts_.dispatchers > 0, "daemon needs at least 1 dispatcher");
  FLASHQOS_EXPECT(opts_.max_batch > 0 && opts_.inflight_cap > 0,
                  "daemon batch/in-flight caps must be positive");
}

DaemonServer::~DaemonServer() { stop(); }

bool DaemonServer::start() {
  FLASHQOS_EXPECT(!started_.load(std::memory_order_acquire),
                  "DaemonServer::start() called twice");
  Acceptor::Options ao;
  ao.port = opts_.port;
  ao.queue_capacity = std::max<std::size_t>(opts_.dispatchers * 2, 16);
  if (!acceptor_.start(ao)) return false;
  if (!svc_.start(*this)) {
    acceptor_.stop();
    acceptor_.reap();
    return false;
  }
  started_.store(true, std::memory_order_release);
  dispatchers_.reserve(opts_.dispatchers);
  for (std::size_t i = 0; i < opts_.dispatchers; ++i) {
    dispatchers_.emplace_back([this] { dispatcher_loop(); });
  }
  return true;
}

void DaemonServer::dispatcher_loop() {
  for (;;) {
    auto fd = acceptor_.next_client();
    if (!fd.has_value()) return;
    handle_connection(*fd);
  }
}

void DaemonServer::handle_connection(int fd) {
  auto conn = std::make_shared<Conn>();
  conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  conn->fd = fd;
  conn->counted_active = true;
  conns_total_.fetch_add(1, std::memory_order_relaxed);
  active_submitters_.fetch_add(1, std::memory_order_acq_rel);
  bump("net.connections");
  {
    const std::unique_lock<std::mutex> lock(conns_mutex_);
    conns_[conn->id] = conn;
  }
  // A connection accepted from the backlog after drain_session()'s
  // shutdown sweep would block its reader forever; draining_ is set
  // before that sweep, so whichever side runs second shuts the fd.
  if (draining_.load(std::memory_order_acquire)) ::shutdown(fd, SHUT_RD);
  conn->writer = std::thread([conn] { conn->writer_loop(); });

  serve_frames(*conn, fd);

  conn_finished(conn);
}

void DaemonServer::serve_frames(Conn& conn, int fd) {
  FrameReader reader;
  bool hello_done = false;
  std::vector<WireEvent> wire_events;
  std::vector<trace::TraceEvent> events;
  std::vector<std::uint64_t> tags;
  char buf[16384];

  auto fail = [&](ErrorCode code, const std::string& msg) {
    parse_errors_.fetch_add(1, std::memory_order_relaxed);
    bump("net.parse_errors");
    conn.queue_control(encode_error(code, msg));
  };

  for (;;) {
    const ssize_t n = recv_some(fd, buf, sizeof(buf), /*timeout_ms=*/-1);
    if (n <= 0) return;  // peer gone, or our own shutdown() during drain
    reader.feed(buf, static_cast<std::size_t>(n));
    for (;;) {
      auto f = reader.next();
      if (!f.has_value()) break;
      switch (f->type) {
        case FrameType::kHello: {
          std::uint32_t version = 0;
          if (!decode_hello(*f, version)) {
            fail(ErrorCode::kMalformed, "bad hello");
            return;
          }
          if (version != kProtocolVersion) {
            fail(ErrorCode::kBadVersion, "unsupported protocol version");
            return;
          }
          hello_done = true;
          WelcomeFrame w;
          w.version = kProtocolVersion;
          w.devices = svc_.scheme().devices();
          w.copies = svc_.scheme().copies();
          w.interval_ns = svc_.options().pipeline.qos_interval;
          w.max_batch = opts_.max_batch;
          w.inflight_cap = opts_.inflight_cap;
          conn.queue_control(encode_welcome(w));
          break;
        }
        case FrameType::kSubmit: {
          if (!hello_done) {
            fail(ErrorCode::kBadSequence, "submit before hello");
            return;
          }
          if (!decode_submit(*f, wire_events)) {
            fail(ErrorCode::kMalformed, "bad submit");
            return;
          }
          if (wire_events.size() > opts_.max_batch) {
            fail(ErrorCode::kTooLarge, "submit batch over max_batch");
            return;
          }
          const auto count = static_cast<std::uint64_t>(wire_events.size());
          const std::uint64_t inflight =
              conn.outstanding.load(std::memory_order_relaxed);
          const bool over_cap = inflight + count > opts_.inflight_cap;
          bool accepted = false;
          if (!over_cap && count > 0) {
            events.clear();
            tags.clear();
            events.reserve(wire_events.size());
            tags.reserve(wire_events.size());
            for (const auto& w : wire_events) {
              events.push_back(to_trace_event(w));
              tags.push_back(w.tag);
            }
            // Count before submitting: completions can race back on the
            // service thread the instant submit() enqueues.
            conn.outstanding.fetch_add(count, std::memory_order_relaxed);
            accepted = svc_.submit(conn.id, events, tags);
            if (!accepted) {
              conn.outstanding.fetch_sub(count, std::memory_order_relaxed);
            }
          }
          if (!accepted && count > 0) {
            // Shed at the wire: the pipeline never saw these events.
            std::vector<WirePushback> ps;
            ps.reserve(wire_events.size());
            const auto reason = over_cap ? PushbackReason::kInflightCap
                                         : PushbackReason::kDraining;
            for (const auto& w : wire_events) {
              ps.push_back({w.tag, static_cast<std::uint8_t>(reason)});
            }
            pushbacks_.fetch_add(count, std::memory_order_relaxed);
            bump("net.pushbacks", count);
            conn.queue_pushbacks(std::move(ps), opts_.writer_budget_bytes);
          }
          if constexpr (obs::kEnabled) frame_counters().submit_batches.inc();
          break;
        }
        case FrameType::kFlush: {
          if (!hello_done) {
            fail(ErrorCode::kBadSequence, "flush before hello");
            return;
          }
          std::int64_t floor = 0;
          if (!decode_flush(*f, floor)) {
            fail(ErrorCode::kMalformed, "bad flush");
            return;
          }
          svc_.flush(std::max<std::int64_t>(floor, 0));
          break;
        }
        case FrameType::kEndSession: {
          if (!hello_done) {
            fail(ErrorCode::kBadSequence, "end-session before hello");
            return;
          }
          // The conn stays open to receive its remaining completions and
          // the final kDrained; it just no longer holds the session up.
          if (conn.counted_active) {
            conn.counted_active = false;
            const std::uint64_t left =
                active_submitters_.fetch_sub(1, std::memory_order_acq_rel) -
                1;
            if (left == 0) maybe_drain();
          }
          break;
        }
        default:
          fail(ErrorCode::kMalformed, "unexpected frame type");
          return;
      }
    }
    if (reader.error()) {
      fail(ErrorCode::kTooLarge, "bad frame length");
      return;
    }
  }
}

void DaemonServer::conn_finished(const std::shared_ptr<Conn>& conn) {
  // Reader is done (disconnect, error, or post-drain shutdown). Release
  // the session slot if kEndSession never did, let the writer flush what
  // is queued, and reap.
  if (conn->counted_active) {
    conn->counted_active = false;
    const std::uint64_t left =
        active_submitters_.fetch_sub(1, std::memory_order_acq_rel) - 1;
    if (left == 0) maybe_drain();
  }
  conn->close_queue();
  if (conn->writer.joinable()) conn->writer.join();
  {
    const std::unique_lock<std::mutex> lock(conns_mutex_);
    conns_.erase(conn->id);
  }
  ::close(conn->fd);
}

void DaemonServer::on_served(const service::Served& s) {
  on_served_batch({&s, 1});
}

void DaemonServer::on_served_batch(std::span<const service::Served> batch) {
  for (std::size_t begin = 0; begin < batch.size();) {
    const std::uint64_t id = batch[begin].conn;
    std::size_t end = begin + 1;
    while (end < batch.size() && batch[end].conn == id) ++end;
    const auto run = batch.subspan(begin, end - begin);
    begin = end;

    std::shared_ptr<Conn> conn;
    {
      const std::unique_lock<std::mutex> lock(conns_mutex_);
      auto it = conns_.find(id);
      if (it != conns_.end()) conn = it->second;
    }
    if (conn == nullptr) {
      dropped_.fetch_add(run.size(), std::memory_order_relaxed);
      bump("net.dropped_completions", run.size());
      continue;
    }
    // Free the run's in-flight slots BEFORE staging its answers: the
    // instant they are queued, the writer can deliver them and the client
    // can submit into the freed slots — if the dispatcher then read a
    // count this thread had not yet decremented, a compliant closed-loop
    // client riding exactly at the cap would be pushed back for the
    // server's own lag.
    conn->outstanding.fetch_sub(run.size(), std::memory_order_relaxed);
    if (!conn->queue_completions(run, opts_.writer_budget_bytes)) {
      dropped_.fetch_add(run.size(), std::memory_order_relaxed);
      bump("net.dropped_completions", run.size());
      continue;
    }
    conn->served.fetch_add(run.size(), std::memory_order_relaxed);
  }
}

void DaemonServer::maybe_drain() {
  // Every connection that ever existed has ended its submissions (and at
  // least one existed): the stream is over. SIGTERM forces the same path
  // with draining_ already set.
  if (conns_total_.load(std::memory_order_acquire) == 0) return;
  drain_session();
}

void DaemonServer::initiate_drain() {
  // Wake any reader blocked in recv with no client activity: shut the
  // read side of every live connection. Their dispatchers then fall into
  // conn_finished -> maybe_drain, but force the drain here too in case no
  // connection ever arrived.
  {
    const std::unique_lock<std::mutex> lock(conns_mutex_);
    for (auto& [id, conn] : conns_) ::shutdown(conn->fd, SHUT_RD);
  }
  drain_session();
}

void DaemonServer::drain_session() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  // New connections would join a stream that is ending; stop the door
  // first. Dispatchers blocked in next_client() drain the backlog (those
  // clients get served a draining pushback for any submit) and exit.
  acceptor_.stop();
  // Drain the pipeline: every queued dispatch resolves, the final
  // completions flow through on_served -> the writers, and the aggregate
  // result lands here.
  core::StreamResult res = svc_.drain();
  // Answer kDrained on every connection still around, then notify.
  {
    const std::unique_lock<std::mutex> lock(conns_mutex_);
    for (auto& [id, conn] : conns_) {
      conn->queue_drained(
          encode_drained(conn->served.load(std::memory_order_relaxed)));
      // No more traffic will ever be queued; let writers run dry and stop.
      conn->close_queue();
      // The reader may still be blocked in recv on an idle-but-open peer.
      ::shutdown(conn->fd, SHUT_RD);
    }
  }
  {
    const std::unique_lock<std::mutex> lock(done_mutex_);
    result_.emplace(std::move(res));
  }
  done_cv_.notify_all();
}

const core::StreamResult& DaemonServer::wait_done() {
  std::unique_lock<std::mutex> lock(done_mutex_);
  done_cv_.wait(lock, [this] { return result_.has_value(); });
  return *result_;
}

void DaemonServer::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  initiate_drain();
  (void)wait_done();
  for (auto& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
  dispatchers_.clear();
  acceptor_.reap();
  started_.store(false, std::memory_order_release);
}

}  // namespace flashqos::net
