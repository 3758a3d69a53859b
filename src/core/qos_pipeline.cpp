#include "core/qos_pipeline.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <utility>

#include "core/replay_obs.hpp"
#include "core/sampler.hpp"
#include "core/slot_matcher.hpp"
#include "design/block_design.hpp"
#include "fault/injector.hpp"
#include "fim/apriori.hpp"
#include "flashsim/flash_array.hpp"
#include "retrieval/dtr.hpp"
#include "trace/cursor.hpp"
#include "util/stats.hpp"

namespace flashqos::core {

const char* to_string(RetrievalPath path) noexcept {
  switch (path) {
    case RetrievalPath::kUnset: return "unset";
    case RetrievalPath::kPrimary: return "primary";
    case RetrievalPath::kSlotMatched: return "slot_matched";
    case RetrievalPath::kSurplus: return "surplus";
    case RetrievalPath::kAlignedDtr: return "aligned_dtr";
    case RetrievalPath::kAlignedMaxFlow: return "aligned_max_flow";
    case RetrievalPath::kDegraded: return "degraded";
    case RetrievalPath::kWrite: return "write";
    case RetrievalPath::kFailed: return "failed";
    case RetrievalPath::kShed: return "shed";
  }
  return "unknown";
}

namespace {

/// A fault retry waiting for its recovery boundary, ordered by (dispatch
/// time, seq); seq is the 0-based ingestion index. Fresh arrivals wait in
/// the engine's arrival FIFO and reads that admission defers in its
/// carry-over FIFO instead.
struct Pending {
  SimTime dispatch = 0;
  std::uint64_t seq = 0;

  bool operator>(const Pending& other) const noexcept {
    return dispatch != other.dispatch ? dispatch > other.dispatch : seq > other.seq;
  }
};

/// Interval summary: add() one outcome at a time (trace order),
/// finalize() into an IntervalReport. The replay core and
/// replay_original() both fold through it, so every derived double comes
/// from one accumulation order.
struct OutcomeFold {
  IntervalReport r;
  Accumulator resp, e2e, delay, write_ms;
  std::size_t matched = 0;
  std::size_t reads = 0;

  void add(const RequestOutcome& o) {
    ++r.requests;
    if (o.failed) {
      ++r.failed;
      return;  // never served: no response/delay statistics
    }
    if (o.is_write) {
      ++r.writes;
      write_ms.add(to_ms(o.end_to_end()));
      return;  // write completion tracked separately from read QoS
    }
    ++reads;
    resp.add(to_ms(o.response()));
    e2e.add(to_ms(o.end_to_end()));
    if (o.deferred()) {
      ++r.deferred;
      delay.add(to_ms(o.delay()));
    }
    if (o.fim_matched) ++matched;
  }

  [[nodiscard]] IntervalReport finalize() const {
    IntervalReport out = r;
    if (out.requests == 0) return out;
    out.avg_response_ms = resp.mean();
    out.max_response_ms = resp.max();
    out.avg_e2e_ms = e2e.mean();
    out.max_e2e_ms = e2e.max();
    out.avg_write_ms = write_ms.count() ? write_ms.mean() : 0.0;
    if (reads > 0) {
      out.pct_deferred =
          static_cast<double>(out.deferred) / static_cast<double>(reads);
      out.fim_match_rate =
          static_cast<double>(matched) / static_cast<double>(reads);
    }
    out.avg_delay_ms = delay.count() ? delay.mean() : 0.0;
    return out;
  }
};

}  // namespace

void SliceTransactions::add(const trace::TraceEvent& e) {
  if (e.time >= cut_) close_until(e.time);
  if (!e.is_read) return;  // the paper mines read requests
  const std::int64_t w = e.time / qos_interval_;
  if (w != window_) {
    close_transaction();
    window_ = w;
  }
  tx_.push_back(e.block);
}

void SliceTransactions::close_until(SimTime t) {
  if (t < cut_ || cut_ == kNoCut) return;
  // The open slice ends at cut_ <= t. Every slice after it and before the
  // one containing t ends by t too, and no event reached any of them.
  const auto open = static_cast<std::size_t>(t / report_interval_);
  close_slice();
  push_empty(open - slice_);
  slice_ = open;
  // The open slice ends at (slice_ + 1) * RI, or never within SimTime.
  const auto whole = static_cast<std::size_t>(kNoCut / report_interval_);
  cut_ = slice_ < whole ? static_cast<SimTime>(slice_ + 1) * report_interval_ : kNoCut;
}

void SliceTransactions::finish() { close_slice(); }

fim::TransactionDb SliceTransactions::take() {
  FLASHQOS_EXPECT(!done_.empty(), "no completed FIM slice to take");
  auto& front = done_.front();
  if (front.count > 1) {
    --front.count;
    return {};
  }
  auto db = std::move(front.db);
  done_.pop_front();
  return db;
}

std::size_t SliceTransactions::skip_empty(std::size_t max) {
  if (done_.empty() || !done_.front().db.empty()) return 0;
  auto& front = done_.front();
  const std::size_t n = std::min(front.count, max);
  front.count -= n;
  if (front.count == 0) done_.pop_front();
  return n;
}

void SliceTransactions::close_transaction() {
  open_.add_in_place(tx_);  // an empty transaction adds nothing
  tx_.clear();
}

void SliceTransactions::close_slice() {
  close_transaction();
  window_ = -1;  // a QoS interval's transaction never straddles a slice
  if (open_.empty()) {
    push_empty(1);
  } else {
    done_.push_back({std::exchange(open_, {}), 1});
  }
  ++slice_;
}

void SliceTransactions::push_empty(std::size_t n) {
  if (n == 0) return;
  if (!done_.empty() && done_.back().db.empty()) {
    done_.back().count += n;
  } else {
    done_.push_back({{}, n});
  }
}

std::vector<fim::FrequentPair> mine_event_range(const trace::Trace& t,
                                                std::size_t begin, std::size_t end,
                                                SimTime qos_interval,
                                                std::uint64_t min_support) {
  SliceTransactions slices(qos_interval, 0);
  for (std::size_t i = begin; i < end; ++i) slices.add(t.events[i]);
  slices.finish();
  return fim::mine_pairs_apriori(slices.take(), min_support).pairs;
}

std::vector<std::string> PipelineConfig::validate(std::uint32_t devices) const {
  std::vector<std::string> out;
  if (qos_interval <= 0) out.push_back("qos_interval must be positive");
  if (access_budget < 1) {
    out.push_back("access_budget must be at least 1 (a zero budget admits nothing)");
  }
  if (access_budget > kMaxAccessBudget) {
    out.push_back("access_budget must be at most " + std::to_string(kMaxAccessBudget));
  }
  if (service_time <= 0) out.push_back("service_time must be positive");
  if (write_latency <= 0) out.push_back("write_latency must be positive");
  if (fim_min_support < 1) out.push_back("fim_min_support must be at least 1");
  if (admission == AdmissionMode::kStatistical) {
    if (p_table.empty()) {
      out.push_back(
          "statistical admission needs a sampled p_table "
          "(core::sample_optimal_probabilities)");
    }
    // Written so that a NaN fails too.
    for (const double p : p_table) {
      if (!(p >= 0.0 && p <= 1.0)) {
        out.push_back("p_table values must be probabilities in [0, 1]");
        break;
      }
    }
    if (!(epsilon >= 0.0 && epsilon <= 1.0)) out.push_back("epsilon must be in [0, 1]");
  }
  if (p_table_samples == 0) out.push_back("p_table_samples must be positive");
  for (const auto& d : faults.validate(devices)) out.push_back("faults: " + d);
  if (!tenants.empty()) {
    if (admission == AdmissionMode::kStatistical) {
      out.push_back(
          "statistical admission is not supported with a [tenants] section "
          "(the surplus rule and the WFQ share interact; use deterministic "
          "admission)");
    }
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      const auto& s = tenants[i];
      const std::string who = "tenant '" + s.name + "': ";
      if (s.name.empty()) out.push_back("tenant names must be non-empty");
      if (!(s.weight > 0.0) || !std::isfinite(s.weight)) {
        out.push_back(who + "weight must be positive and finite");
      }
      if (s.queue_capacity < 1) {
        out.push_back(who + "queue_capacity must be at least 1");
      }
      if (s.mark_threshold < 1 || s.mark_threshold > s.queue_capacity) {
        out.push_back(who + "mark_threshold must be in [1, queue_capacity]");
      }
      for (std::size_t j = i + 1; j < tenants.size(); ++j) {
        if (tenants[j].name == s.name) {
          out.push_back("duplicate tenant name '" + s.name + "'");
        }
      }
    }
  }
  for (const auto& spec : slos) {
    const std::string who = "slo '" + spec.name() + "': ";
    if (const auto d = spec.validate(); !d.empty()) out.push_back(who + d);
    if (spec.tenant.empty()) continue;
    const bool known =
        std::any_of(tenants.begin(), tenants.end(),
                    [&](const TenantSpec& s) { return s.name == spec.tenant; });
    if (!known) {
      out.push_back(who + "tenant is not declared in the [tenants] section");
    }
  }
  return out;
}

QosPipeline::QosPipeline(const decluster::AllocationScheme& scheme, PipelineConfig cfg)
    : scheme_(scheme), cfg_(std::move(cfg)), retriever_(scheme_, cfg_.service_time) {
  auto diags = cfg_.validate(scheme_.devices());
  if (!cfg_.tenants.empty()) {
    // Needs the scheme (S depends on c), so it lives here, not validate().
    const std::uint64_t s_budget =
        design::guarantee_buckets(scheme_.copies(), cfg_.access_budget);
    std::uint64_t reserved = 0;
    for (const auto& ten : cfg_.tenants) reserved += ten.reservation;
    if (reserved > s_budget) {
      diags.push_back("tenant reservations (" + std::to_string(reserved) +
                      ") exceed the interval budget S=" +
                      std::to_string(s_budget));
    }
  }
  for (const auto& d : diags) {
    // flashqos-lint: allow(adhoc-logging): diagnostics before the contract abort
    std::fprintf(stderr, "flashqos: invalid pipeline config: %s\n", d.c_str());
  }
  FLASHQOS_EXPECT(diags.empty(),
                  "invalid pipeline configuration (diagnostics on stderr)");
}

namespace {

/// drain() bound that pops every queued dispatch (no real dispatch instant
/// reaches it: recovery retries and boundary wakes are finite times).
inline constexpr SimTime kDrainAll = std::numeric_limits<SimTime>::max();

/// No deferred work is waiting for a boundary.
inline constexpr SimTime kNoWake = kDrainAll;

/// One in-flight request: the event, its outcome, and whether that
/// outcome is final — dispatched, written, failed or shed. A read that
/// admission defers is not final until it dispatches. While the request
/// waits in the arrival FIFO, `out.dispatch` holds the instant it is due
/// at; stage() stamps the instant it leaves.
struct StreamSlot {
  trace::TraceEvent ev;
  RequestOutcome out;
  bool done = false;
};

/// The in-flight requests [base(), end()) by seq, in chunks of kChunk
/// slots: seq i lives in slot i mod kChunk of chunk i / kChunk, found
/// through a power-of-two ring of chunk pointers by shift and mask. A chunk
/// whose slots have all folded is kept and reused for the next chunk the
/// window grows into, so resident memory tracks the largest in-flight span
/// and a steady replay allocates nothing.
class SlotWindow {
 public:
  [[nodiscard]] StreamSlot& operator[](std::uint64_t seq) {
    return (*ring_[(seq >> kChunkBits) & mask_])[seq & (kChunk - 1)];
  }
  [[nodiscard]] bool empty() const noexcept { return base_ == end_; }
  [[nodiscard]] std::uint64_t base() const noexcept { return base_; }
  [[nodiscard]] std::uint64_t end() const noexcept { return end_; }

  /// Open slot end() and return it; its previous contents are stale.
  StreamSlot& push_back() {
    if ((end_ & (kChunk - 1)) == 0) open_chunk();
    return (*this)[end_++];
  }

  /// Drop slot base(); a chunk is retired once its last slot is dropped.
  void pop_front() {
    ++base_;
    if ((base_ & (kChunk - 1)) == 0) {
      spare_.push_back(std::move(ring_[((base_ - 1) >> kChunkBits) & mask_]));
    }
  }

 private:
  // 512 slots of 96 bytes: large enough that chunk turnover is rare, small
  // enough that the last, partly used chunk adds little to resident memory.
  static constexpr unsigned kChunkBits = 9;
  static constexpr std::uint64_t kChunk = std::uint64_t{1} << kChunkBits;
  using Chunk = std::array<StreamSlot, kChunk>;

  /// Give chunk end() / kChunk storage, doubling the ring when every entry
  /// holds a live chunk.
  void open_chunk() {
    const std::uint64_t first = base_ >> kChunkBits;
    const std::uint64_t next = end_ >> kChunkBits;
    if (next - first >= ring_.size()) {
      std::vector<std::unique_ptr<Chunk>> grown(std::max<std::size_t>(8, 2 * ring_.size()));
      for (std::uint64_t c = first; c < next; ++c) {
        grown[c & (grown.size() - 1)] = std::move(ring_[c & mask_]);
      }
      ring_ = std::move(grown);
      mask_ = ring_.size() - 1;
    }
    auto& entry = ring_[next & mask_];
    if (spare_.empty()) {
      entry = std::make_unique<Chunk>();
    } else {
      entry = std::move(spare_.back());
      spare_.pop_back();
    }
  }

  std::vector<std::unique_ptr<Chunk>> ring_;   // chunk c at c & mask_
  std::vector<std::unique_ptr<Chunk>> spare_;  // retired, waiting for reuse
  std::uint64_t mask_ = 0;
  std::uint64_t base_ = 0;
  std::uint64_t end_ = 0;
};

/// The replay core behind run() and run_stream(). One instance is one
/// replay.
///
/// Events arrive in cursor batches. After each batch the engine drains
/// dispatch instants *strictly before* the last ingested arrival time: the
/// cursor contract says every unread arrival is at or after that time, so
/// no same-instant dispatch group popped under the bound can ever gain a
/// member from unread input — which is why results do not depend on the
/// batch size. Requests live in a seq-indexed sliding window (SlotWindow)
/// and fold into per-interval / overall reports (and ReplayObs, the
/// engine's one observability member) in trace order as their slots become
/// final.
///
/// Queueing is O(1) per request. Fresh arrivals wait in an arrival FIFO,
/// the window's not yet dispatched tail [fifo_head_, end()): arrivals are
/// time-sorted, so their dispatch instants (the arrival online, the next
/// boundary aligned) are too. Only fault retries need the (dispatch, seq)
/// heap. Reads admission defers wait in the carry-over FIFO.
class ReplayEngine {
 public:
  ReplayEngine(const decluster::AllocationScheme& scheme, const PipelineConfig& cfg,
               retrieval::Retriever& retriever)
      : scheme_(scheme),
        cfg_(cfg),
        retriever_(retriever),
        T_(cfg.qos_interval),
        L_(cfg.service_time),
        mapper_(scheme),
        det_(scheme.copies(), cfg.access_budget),
        matcher_(scheme),
        tenant_mode_(!cfg.tenants.empty()) {}

  StreamResult run(trace::TraceCursor& cursor, FimSource* fim,
                   const StreamOptions& opts) {
    FLASHQOS_EXPECT(opts.batch_size > 0, "stream batch size must be positive");
    report_interval_ = cursor.meta().report_interval;
    keep_intervals_ = opts.keep_intervals;
    StreamResult res;
    // Pull the first batch before any engine setup so an empty stream
    // returns an empty result with no registry side effects.
    std::vector<trace::TraceEvent> buf(opts.batch_size);
    std::size_t n = cursor.fill(buf);
    while (n == 0) {
      // Finite cursors are done; a live cursor that is merely idle blocks
      // in fill() until input or close.
      if (cursor.exhausted()) return res;
      n = cursor.fill(buf);
    }
    if (!cfg_.faults.empty()) {
      FLASHQOS_EXPECT(opts.horizon > 0,
                      "streaming replay with a fault plan needs "
                      "StreamOptions::horizon (the fault schedule compiles "
                      "before the trace length is known)");
    }
    init(opts.horizon, fim);
    sink_ = opts.sink;
    rescan_ = opts.rescan_for_test;
    // Read-ahead rule: every unread arrival has time >= the last ingested
    // event's time AND >= the cursor's declared frontier, so dispatch
    // instants strictly before max(last, frontier) can never gain
    // same-instant members from unread input. Finite cursors promise
    // nothing (frontier() == 0) and the bound is the last ingested
    // arrival. The misdrain knob seeds the off-by-one defect (<= instead
    // of <): groups dispatching exactly at the ingestion frontier are
    // processed before later batches deliver their same-instant members,
    // splitting bursts — the stream oracle proves it would notice a broken
    // bound.
    const auto drain_step = [&] {
      const SimTime bound = std::max(last_time_, cursor.frontier()) +
                            (opts.misdrain_for_test ? 1 : 0);
      // FIM slices ending at or below the bound can gain no transaction.
      // For finite cursors ingestion has already closed them; only a live
      // cursor whose frontier outruns its events closes (possibly empty)
      // slices here. If such a stream ends before events reach the
      // frontier, mining may have seen empty slices the materialized trace
      // would not contain, so live producers that need exact replay
      // identity keep the frontier at or below the final event time (the
      // daemon oracle does).
      if (fim_tx_.has_value()) fim_tx_->close_until(bound);
      const auto t0 = ReplayObs::wall_now();
      drain(bound);
      obs_->drained(t0);
    };
    while (n > 0) {
      const auto t0 = ReplayObs::wall_now();
      for (std::size_t i = 0; i < n; ++i) ingest_event(buf[i]);
      obs_->ingested(t0);
      drain_step();
      n = cursor.fill(buf);
      while (n == 0 && !cursor.exhausted()) {
        // Live stream, momentarily empty: the frontier may have advanced
        // (a flush) with no new events, so re-drain before blocking again.
        drain_step();
        n = cursor.fill(buf);
      }
    }
    finish_ingest();
    drain(kDrainAll);
    return finish();
  }

 private:
  // ---- window access -----------------------------------------------------
  // Request seq `i` lives in slot win_[i] until its outcome folds.

  [[nodiscard]] StreamSlot& slot(std::size_t i) { return win_[i]; }
  [[nodiscard]] const trace::TraceEvent& ev(std::size_t i) { return slot(i).ev; }
  [[nodiscard]] RequestOutcome& out(std::size_t i) { return slot(i).out; }
  /// The request's outcome can no longer change: it was dispatched,
  /// written, failed or shed.
  void mark_final(std::size_t i) { slot(i).done = true; }

  // ---- setup -------------------------------------------------------------

  void init(SimTime horizon, FimSource* fim) {
    fim_ = fim;
    if (cfg_.mapping == MappingMode::kFim && report_interval_ > 0 &&
        fim_ == nullptr) {
      fim_tx_.emplace(T_, report_interval_);
    }
    if (cfg_.admission == AdmissionMode::kStatistical) {
      stat_.emplace(cfg_.p_table, det_.limit(), cfg_.epsilon);
    }
    if (tenant_mode_) ts_.emplace(cfg_.tenants, det_.limit(), cfg_.wfq_knobs);

    // Fault state. The compiled plan is a pure function of (plan, scheme,
    // horizon), so every replay of a config sees the same fault schedule,
    // and the fault and re-simulation oracles recompile it on their own.
    // An empty plan takes none of the fault branches.
    injector_.emplace(cfg_.faults, scheme_, horizon);
    faults_active_ = injector_->active();
    retry_timeout_ = injector_->compiled().retry_timeout;
    det_limit_now_ = det_.limit();

    free_at_.assign(scheme_.devices(), 0);
    obs_.emplace(cfg_, scheme_.devices(), *injector_, ts_.has_value() ? &*ts_ : nullptr);
  }

  // ---- ingestion ---------------------------------------------------------

  void ingest_event(const trace::TraceEvent& e) {
    FLASHQOS_EXPECT(e.time >= last_time_ && e.time >= 0 && e.time <= kMaxEventTime,
                    "stream cursor must yield time-sorted events in [0, kMaxEventTime]");
    last_time_ = e.time;
    // Online mode dispatches at arrival; aligned mode at the enclosing
    // interval boundary (requests already exactly on a boundary run in
    // that interval, matching the paper's synthetic setup). Both are
    // monotone in arrival time, so the arrival FIFO stays sorted.
    const SimTime dispatch = cfg_.retrieval == RetrievalMode::kOnline
                                 ? e.time
                                 : next_interval_start(e.time, T_);
    win_.push_back() = {e, {.arrival = e.time, .dispatch = dispatch}, false};
    // A slice's transactions are complete once any event of a later slice
    // has been ingested (events are time-sorted), which the drain bound
    // guarantees before the mapper ever asks for it.
    if (fim_tx_.has_value()) fim_tx_->add(e);
  }

  /// End of stream: close the last FIM slice and fix the reporting slice
  /// count, after which drain(kDrainAll) may mine every slice.
  void finish_ingest() {
    if (fim_tx_.has_value()) fim_tx_->finish();
    slices_total_ = report_interval_ > 0
                        ? static_cast<std::size_t>(last_time_ / report_interval_) + 1
                        : 0;
    eof_ = true;
  }

  /// Reporting slices the FIM rollover may mine right now. Pre-EOF the
  /// rollover target now/RI can never overshoot the ingested prefix (now
  /// is strictly below the last ingested arrival), so the cap only has to
  /// bind once the stream length is known.
  [[nodiscard]] std::size_t total_slices() const {
    return eof_ ? slices_total_ : std::numeric_limits<std::size_t>::max();
  }

  // ---- result fold -------------------------------------------------------

  /// Pop every final slot off the window front, folding outcomes into the
  /// reports and the observability plane in trace order.
  void fold_final() {
    while (!win_.empty() && win_[win_.base()].done) {
      fold_outcome(win_.base(), win_[win_.base()]);
      win_.pop_front();
    }
  }

  void fold_outcome(std::uint64_t seq, const StreamSlot& s) {
    if (sink_ != nullptr) sink_->on_outcome(seq, s.ev, s.out);
    overall_fold_.add(s.out);
    if (report_interval_ > 0 && keep_intervals_) {
      const auto slice = static_cast<std::size_t>(s.ev.time / report_interval_);
      if (interval_folds_.size() <= slice) interval_folds_.resize(slice + 1);
      interval_folds_[slice].add(s.out);
    }
    if (!s.out.failed && !s.out.is_write && s.out.response() > cfg_.qos_interval) {
      ++deadline_violations_;
    }
    obs_->outcome(seq, s.out);
  }

  // ---- dispatch core -----------------------------------------------------

  /// Process every dispatch instant strictly before `bound`: fresh
  /// arrivals, fault retries and the boundary wake of deferred work.
  void drain(SimTime bound) {
    while (true) {
      SimTime now = wake_;
      if (fifo_head_ < win_.end()) now = std::min(now, win_[fifo_head_].out.dispatch);
      if (!retries_.empty()) now = std::min(now, retries_.top().dispatch);
      if (now >= bound) return;
      process_group(now);
      fold_final();
    }
  }

  /// Deterministic admission against the *live* budget (S while healthy,
  /// S' while degraded). DeterministicAdmission itself stays fixed at S;
  /// only this wrapper tracks the adaptive limit.
  [[nodiscard]] std::uint64_t accept_det(std::uint64_t already,
                                         std::uint64_t count) const {
    return already >= det_limit_now_
               ? 0
               : std::min<std::uint64_t>(count, det_limit_now_ - already);
  }

  /// Adaptive degraded-mode budgets. While devices are down, deterministic
  /// admission runs against the surviving sub-design's guarantee
  /// S' = (c-f-1)M² + (c-f)M (f = worst-case dead replicas over buckets
  /// that still have a live copy) and statistical admission re-derives Q
  /// from a P_k table sampled on the degraded array. Recomputed whenever
  /// the down-set changes; tables are memoized per mask.
  void update_budgets() {
    surplus_closed_ = false;  // a new budget may accept surplus again
    if (budget_mask_.empty()) {
      det_limit_now_ = det_.limit();
      if (stat_.has_value()) stat_->set_budget(det_.limit(), cfg_.p_table);
      if (tenant_mode_) ts_->set_live_budget(det_limit_now_);
      return;
    }
    std::uint32_t f = 0;
    for (BucketId b = 0; b < scheme_.buckets(); ++b) {
      std::uint32_t dead = 0;
      std::uint32_t alive = 0;
      for (const auto d : scheme_.replicas(b)) {
        if (budget_mask_[d]) {
          ++alive;
        } else {
          ++dead;
        }
      }
      if (alive > 0) f = std::max(f, dead);
    }
    const std::uint32_t c_eff = scheme_.copies() > f ? scheme_.copies() - f : 1;
    det_limit_now_ = design::guarantee_buckets(c_eff, cfg_.access_budget);
    if (stat_.has_value()) {
      auto [it, fresh] = degraded_tables_.try_emplace(budget_mask_);
      if (fresh) {
        const auto max_k = static_cast<std::uint32_t>(cfg_.p_table.size() - 1);
        it->second = sample_optimal_probabilities(
            scheme_, max_k,
            {.samples_per_size = cfg_.p_table_samples, .seed = cfg_.p_table_seed},
            budget_mask_);
      }
      stat_->set_budget(det_limit_now_, it->second);
    }
    if (tenant_mode_) ts_->set_live_budget(det_limit_now_);
  }

  /// Effective read service on `dev` for a read starting at `at`: the base
  /// quantum stretched by any covering latency-spike window.
  [[nodiscard]] SimTime read_service(DeviceId dev, SimTime at) const {
    return faults_active_ ? injector_->read_service(dev, at, L_) : L_;
  }

  /// The device model: every read, write replica and rebuild read occupies
  /// its device here. Each device serves FIFO, so an op may not start
  /// before the previous one finished (checked in every build).
  void occupy(const DeviceOp& op) {
    FLASHQOS_EXPECT(op.start >= free_at_[op.device],
                    "device op starts before the device's previous op finished");
    free_at_[op.device] = op.finish;
    obs_->device_op(op);
    if (sink_ != nullptr) sink_->on_device_op(op);
  }

  /// Serve read `idx` on `dev` from `start`; its outcome is final.
  void dispatch_request(std::size_t idx, DeviceId dev, SimTime start) {
    auto& o = out(idx);
    o.device = dev;
    o.start = start;
    o.finish = start + read_service(dev, start);
    occupy({.device = dev,
            .start = o.start,
            .finish = o.finish,
            .kind = DeviceOpKind::kRead,
            .request = static_cast<std::int64_t>(idx)});
    mark_final(idx);
    obs_->read_dispatched(o);
  }

  /// Hot-spare rebuild reads are paced background work: they occupy real
  /// device time like foreground dispatches, but are not trace outcomes.
  void submit_rebuild_due(SimTime now) {
    const auto due = injector_->take_rebuild_due(now);
    for (const auto& rr : due) {
      const SimTime start = std::max(free_at_[rr.source], rr.time);
      occupy({.device = rr.source,
              .start = start,
              .finish = start + read_service(rr.source, start),
              .kind = DeviceOpKind::kRebuild});
    }
    obs_->rebuild_reads(due.size());
  }

  /// Resolve a read's bucket through the mapper and stamp its dispatch
  /// fields for this instant. A deferred read is staged again when it is
  /// next offered, so its final fields come from the instant it leaves.
  BucketId stage(std::size_t idx, SimTime now) {
    const auto m = mapper_.map(ev(idx).block);
    auto& o = out(idx);
    o.dispatch = now;
    o.fim_matched = cfg_.mapping == MappingMode::kFim && m.matched;
    o.q_ppm = q_ppm_;
    o.tenant = ev(idx).tenant;
    return m.bucket;
  }

  /// Queue a deferred read in the carry-over FIFO, keeping seq order.
  /// Fresh deferrals are the newest reads and append; only refused heads
  /// and fault retries land inside.
  void carry(std::size_t idx) {
    if (carry_.empty() || carry_.back() < idx) {
      carry_.push_back(idx);
    } else {
      carry_.insert(std::upper_bound(carry_.begin(), carry_.end(), idx), idx);
    }
  }

  /// Reads not yet offered at this instant: the group's rest, plus the
  /// carried FIFO when it is due now.
  [[nodiscard]] std::size_t offers_left() const {
    return group_.size() - gi_ + (carried_ ? carry_.size() : 0);
  }

  /// The next read in seq order at this instant — the carried FIFO's head
  /// or the group's next member, whichever is older — and its bucket.
  /// Fault retries re-enter the group with old seqs, hence the merge.
  std::pair<std::size_t, BucketId> next_offer(SimTime now) {
    obs_->offer();
    if (carried_ && !carry_.empty() &&
        (gi_ == group_.size() || carry_.front() < group_[gi_])) {
      const std::size_t idx = carry_.front();
      carry_.pop_front();
      return {idx, stage(idx, now)};
    }
    const std::size_t i = gi_++;
    return {group_[i], buckets_[i]};
  }

  /// Earliest-finishing live replica of `bucket` (statistical surplus and
  /// no-admission overflow).
  [[nodiscard]] DeviceId earliest_replica(BucketId bucket, SimTime now) const {
    DeviceId best = kInvalidDevice;
    for (const auto d : scheme_.replicas(bucket)) {
      if (!available_.empty() && !available_[d]) continue;
      if (best == kInvalidDevice ||
          std::max(free_at_[d], now) < std::max(free_at_[best], now)) {
        best = d;
      }
    }
    FLASHQOS_ASSERT(best != kInvalidDevice, "filter left a dead request");
    return best;
  }

  /// First live replica — the primary-only (RAID) read.
  [[nodiscard]] DeviceId primary_replica(BucketId bucket) const {
    DeviceId dev = kInvalidDevice;
    for (const auto d : scheme_.replicas(bucket)) {
      if (available_.empty() || available_[d]) {
        dev = d;
        break;
      }
    }
    FLASHQOS_ASSERT(dev != kInvalidDevice, "filter left a dead request");
    return dev;
  }

  /// Dispatch the slot matcher's placements for `ids` (add order): per
  /// device, slots follow add order.
  void dispatch_matched(const std::vector<std::size_t>& ids, SimTime now) {
    cursor_.assign(free_at_.size(), -1);
    for (std::size_t a = 0; a < ids.size(); ++a) {
      const DeviceId dev = matcher_.device_of(a);
      FLASHQOS_ASSERT(dev != kInvalidDevice, "matched request must have a device");
      SimTime& c = cursor_[dev];
      if (c < 0) c = std::max(free_at_[dev], now);
      out(ids[a]).path = RetrievalPath::kSlotMatched;
      dispatch_request(ids[a], dev, c);
      // Advance by the *actual* finish — under a latency spike the slot is
      // wider than L, and the next slot on this device starts after it.
      c = out(ids[a]).finish;
    }
  }

  /// Schedule the admitted aligned batch (batch_ids_/batch_buckets_) with
  /// DTR + max-flow and dispatch it round by round behind any residual
  /// device work.
  void dispatch_batch(SimTime now) {
    if (batch_ids_.empty()) return;
    const retrieval::Schedule* sched = retriever_.schedule(batch_buckets_, available_);
    FLASHQOS_ASSERT(sched != nullptr, "filter left a dead request");
    const RetrievalPath batch_path =
        !available_.empty() ? RetrievalPath::kDegraded
        : sched->via == retrieval::SolvedBy::kMaxFlow
            ? RetrievalPath::kAlignedMaxFlow
            : RetrievalPath::kAlignedDtr;
    // Requests on one device start back to back in round order.
    order_.resize(batch_ids_.size());
    for (std::size_t i = 0; i < batch_ids_.size(); ++i) order_[i] = i;
    std::stable_sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      return sched->assignments[a].round < sched->assignments[b].round;
    });
    for (const auto i : order_) {
      const DeviceId dev = sched->assignments[i].device;
      out(batch_ids_[i]).path = batch_path;
      dispatch_request(batch_ids_[i], dev, std::max(free_at_[dev], now));
    }
  }

  /// Per-device effective quanta at `now` when a latency spike covers it
  /// (null otherwise), for the slot matcher.
  const std::vector<SimTime>* spike_quanta(SimTime now) {
    if (!faults_active_ || !injector_->any_spike_at(now)) return nullptr;
    svc_now_.resize(scheme_.devices());
    for (DeviceId d = 0; d < scheme_.devices(); ++d) svc_now_[d] = read_service(d, now);
    return &svc_now_;
  }

  /// Wait for the earliest recovery of `bucket`'s replicas, or fail: no
  /// replica ever comes back, or the wait would blow the plan's retry
  /// timeout. Returns the retry boundary, or nullopt after failing `idx`
  /// (finalized at `now`).
  std::optional<SimTime> strand(std::size_t idx, BucketId bucket, SimTime now,
                                std::int64_t qi) {
    SimTime recovery = fault::DeviceFailure::kNeverRecovers;
    for (const auto d : scheme_.replicas(bucket)) {
      recovery = std::min(recovery, injector_->device_up_at(d, now));
    }
    auto& o = out(idx);
    if (recovery != fault::DeviceFailure::kNeverRecovers) {
      const SimTime next_dispatch =
          std::max((qi + 1) * T_, next_interval_start(recovery, T_));
      if (retry_timeout_ == fault::RetryPolicy::kNoTimeout ||
          next_dispatch - o.arrival <= retry_timeout_) {
        return next_dispatch;
      }
      obs_->timeout();
    }
    o.dispatch = now;
    o.failed = true;
    o.start = now;
    o.finish = now;
    o.path = RetrievalPath::kFailed;
    obs_->read_failed(now);
    mark_final(idx);
    return std::nullopt;
  }

  [[nodiscard]] bool all_replicas_down(BucketId bucket) const {
    if (available_.empty()) return false;
    const auto reps = scheme_.replicas(bucket);
    return std::none_of(reps.begin(), reps.end(),
                        [&](DeviceId d) { return available_[d]; });
  }

  /// One dispatch instant: gather its group (fault retries, then fresh
  /// arrivals), roll the FIM/QoS intervals forward, and run the admission/
  /// scheduling paths. When the instant is the boundary deferred work is
  /// due at, the carried reads (or the queued WFQ backlog) are offered
  /// too, ahead of fresh arrivals, which are newer.
  void process_group(SimTime now) {
    group_.clear();
    // A retry left the arrival FIFO before every arrival still in it, so
    // seq order puts this instant's retries ahead of its fresh arrivals.
    while (!retries_.empty() && retries_.top().dispatch == now) {
      group_.push_back(retries_.top().seq);
      retries_.pop();
    }
    while (fifo_head_ < win_.end() && win_[fifo_head_].out.dispatch == now) {
      group_.push_back(fifo_head_++);
    }
    carried_ = wake_ == now;
    if (carried_) wake_ = kNoWake;
    carry_base_ = carried_ ? 0 : carry_.size();
    if (faults_active_) submit_rebuild_due(now);

    // Reporting-interval rollover: rebuild the FIM mapping from the slice
    // that just closed (paper: "we use the trace one previous than the
    // current interval for mining").
    if (cfg_.mapping == MappingMode::kFim && report_interval_ > 0) {
      const auto target =
          std::min(static_cast<std::size_t>(now / report_interval_), total_slices());
      while (report_idx_ < target) {
        if (fim_ != nullptr) {
          mapper_.rebuild(fim_->slice(report_idx_));
          ++report_idx_;
        } else if (const auto run = fim_tx_->skip_empty(target - report_idx_);
                   run > 0) {
          // An empty slice mines no pair, and a rebuild from no pairs
          // resets the mapper whatever came before: one rebuild stands for
          // the whole run of empty slices.
          mapper_.rebuild({});
          report_idx_ += run;
        } else {
          // Slices are taken in order, so this is slice report_idx_.
          mapper_.rebuild(
              fim::mine_pairs_apriori(fim_tx_->take(), cfg_.fim_min_support)
                  .pairs);
          ++report_idx_;
        }
      }
    }

    // QoS interval rollover: reset the admission budget.
    const std::int64_t qi = now / T_;
    if (qi != current_qi_) {
      if (stat_.has_value() && current_qi_ >= 0) {
        stat_->end_interval(demand_, admitted_);
      }
      obs_->qos_rollover(now, current_qi_, admitted_);
      current_qi_ = qi;
      admitted_ = 0;
      demand_ = 0;
      surplus_closed_ = false;
      if (tenant_mode_) {
        // Depth sampled at the boundary = backlog carried across it.
        ts_->observe_depths();
        ts_->begin_interval(det_limit_now_);
      }
    }
    // Q estimate for this interval (constant between end_interval calls);
    // recorded on every outcome dispatched at this instant.
    q_ppm_ = stat_.has_value()
                 ? static_cast<std::int32_t>(std::llround(stat_->q_with() * 1e6))
                 : 0;
    // Every carried read asks for this interval again (statistical Q
    // reads the demand at end_interval).
    if (carried_) demand_ += carry_.size();
    buckets_.resize(group_.size());
    for (std::size_t i = 0; i < group_.size(); ++i) {
      if (ev(group_[i]).is_read) ++demand_;  // writes bypass read admission
      buckets_[i] = stage(group_[i], now);
    }

    // Device availability at this instant. Requests whose replicas are all
    // down either wait for the earliest recovery (re-queued with retry
    // accounting) or are marked failed — when no replica ever comes back,
    // or when the wait would blow the plan's retry timeout. (`available`
    // stays empty — meaning all-up — while zero devices are down, so a
    // fully recovered array is indistinguishable from a healthy one.)
    if (faults_active_) {
      const std::uint32_t down =
          injector_->fill_availability(now, scheme_.devices(), mask_scratch_);
      if (down == 0) {
        available_.clear();
      } else {
        available_ = mask_scratch_;
      }
      if (available_ != budget_mask_) {
        budget_mask_ = available_;
        update_budgets();
      }
      if (down > 0) {
        obs_->degraded(qi);
        // Every carried read faces the strand check, so the due FIFO
        // joins the group (merged by seq) — the one O(backlog) step, and
        // only while a device is down.
        if (carried_ && !carry_.empty()) merge_carry_into_group(now);
        live_.clear();
        live_buckets_.clear();
        for (std::size_t i = 0; i < group_.size(); ++i) {
          // Tenant reads pass through: stranded heads are handled at
          // dispense time, where the WFQ queue can drop them.
          if ((tenant_mode_ && ev(group_[i]).is_read) ||
              !all_replicas_down(buckets_[i])) {
            live_.push_back(group_[i]);
            live_buckets_.push_back(buckets_[i]);
            continue;
          }
          // Stranded: retried at the earliest recovery boundary.
          if (const auto retry = strand(group_[i], buckets_[i], now, qi)) {
            retries_.push(Pending{*retry, group_[i]});
            obs_->retry();
          }
        }
        std::swap(group_, live_);
        std::swap(buckets_, live_buckets_);
      }
    }

    // Writes (extension): replicate the program to every live copy. They
    // bypass read admission, but the device time they consume is real — the
    // matcher sees the updated free times and defers reads accordingly.
    // Processed before the group's reads (pessimistic for read QoS).
    {
      reads_.clear();
      read_buckets_.clear();
      bool any_write = false;
      for (std::size_t i = 0; i < group_.size(); ++i) {
        if (ev(group_[i]).is_read) {
          reads_.push_back(group_[i]);
          read_buckets_.push_back(buckets_[i]);
          continue;
        }
        any_write = true;
        auto& o = out(group_[i]);
        o.is_write = true;
        o.path = RetrievalPath::kWrite;
        SimTime first_start = INT64_MAX;
        SimTime last_finish = 0;
        DeviceId first_dev = kInvalidDevice;
        for (const auto dev : scheme_.replicas(buckets_[i])) {
          if (!available_.empty() && !available_[dev]) continue;
          const SimTime start = std::max(free_at_[dev], now);
          const SimTime finish = start + cfg_.write_latency;
          occupy({.device = dev,
                  .start = start,
                  .finish = finish,
                  .kind = DeviceOpKind::kWrite,
                  .request = static_cast<std::int64_t>(group_[i])});
          if (start < first_start) {
            first_start = start;
            first_dev = dev;
          }
          last_finish = std::max(last_finish, finish);
        }
        FLASHQOS_ASSERT(first_dev != kInvalidDevice, "filter left a dead write");
        o.device = first_dev;
        o.start = first_start;
        o.finish = last_finish;
        obs_->write_fanned_out(now);
        mark_final(group_[i]);
      }
      if (any_write) {
        std::swap(group_, reads_);
        std::swap(buckets_, read_buckets_);
      }
    }

    gi_ = 0;
    if (tenant_mode_) {
      dispense_tenants(now, qi);
    } else {
      admit_reads(now, qi);
    }
  }

  /// Degraded boundary: merge the whole due FIFO into the group by seq,
  /// staging each carried read like a fresh arrival.
  void merge_carry_into_group(SimTime now) {
    live_.clear();
    live_buckets_.clear();
    std::size_t i = 0;
    const auto keep_group_until = [&](std::size_t seq) {
      for (; i < group_.size() && group_[i] < seq; ++i) {
        live_.push_back(group_[i]);
        live_buckets_.push_back(buckets_[i]);
      }
    };
    for (const std::size_t idx : carry_) {
      keep_group_until(idx);
      live_.push_back(idx);
      live_buckets_.push_back(stage(idx, now));
    }
    keep_group_until(std::numeric_limits<std::size_t>::max());
    carry_.clear();
    std::swap(group_, live_);
    std::swap(buckets_, live_buckets_);
  }

  /// Single-tenant admission over this instant's reads in seq order. Each
  /// mode stops offering as soon as every later read would be refused
  /// too, so an interval costs O(S + arrivals), not O(backlog):
  ///  * deterministic: once admitted_ reaches the live budget (S, or S'
  ///    while degraded), or once the slot matcher has no free slot left; a
  ///    read the matcher refuses before that keeps its place and the scan
  ///    goes on;
  ///  * statistical (online): past S, at the first surplus refusal of the
  ///    interval (see surplus_closed_);
  ///  * aligned and primary-only: the count cap decides how many reads
  ///    leave the head;
  ///  * kNone never defers.
  /// Whatever was not dispatched waits in the carry-over FIFO for the next
  /// boundary. rescan_for_test offers every read instead (verification).
  void admit_reads(SimTime now, std::int64_t qi) {
    refused_.clear();
    if (offers_left() > 0) {
      if (cfg_.scheduler == SchedulerMode::kPrimaryOnly) {
        admit_primary(now);
      } else if (cfg_.retrieval == RetrievalMode::kIntervalAligned) {
        admit_aligned(now);
      } else {
        admit_online(now);
      }
    }
    for (const auto idx : refused_) carry(idx);
    for (; gi_ < group_.size(); ++gi_) carry(group_[gi_]);
    // One deferral event per read waiting into the next interval — the
    // spliced FIFO tail included.
    if (carry_.size() > carry_base_) {
      obs_->deferrals(carry_.size() - carry_base_);
      wake_ = (qi + 1) * T_;
    }
  }

  [[nodiscard]] std::uint64_t accept_count(std::uint64_t count) const {
    switch (cfg_.admission) {
      case AdmissionMode::kNone: return count;
      case AdmissionMode::kDeterministic: return accept_det(admitted_, count);
      case AdmissionMode::kStatistical: return stat_->accept(admitted_, count);
    }
    return 0;
  }

  /// Baseline dispatch: every request reads its first live copy, FIFO
  /// behind whatever is queued there; no admission interplay beyond the
  /// budget.
  void admit_primary(SimTime now) {
    while (offers_left() > 0) {
      const bool ok = accept_count(1) > 0;
      if (!ok && !rescan_) return;
      const auto [idx, bucket] = next_offer(now);
      if (!ok) {
        refused_.push_back(idx);
        continue;
      }
      ++admitted_;
      out(idx).path = RetrievalPath::kPrimary;
      const DeviceId dev = primary_replica(bucket);
      dispatch_request(idx, dev, std::max(free_at_[dev], now));
    }
  }

  /// Batch path: admit up to the budget, schedule with DTR + max-flow.
  void admit_aligned(SimTime now) {
    const std::uint64_t n_accept = accept_count(offers_left());
    admitted_ += n_accept;
    batch_ids_.clear();
    batch_buckets_.clear();
    for (std::uint64_t k = 0; k < n_accept; ++k) {
      const auto [idx, bucket] = next_offer(now);
      batch_ids_.push_back(idx);
      batch_buckets_.push_back(bucket);
    }
    while (rescan_ && offers_left() > 0) refused_.push_back(next_offer(now).first);
    dispatch_batch(now);
  }

  /// Online mode. Deterministic portion: a request is admitted only if it
  /// can be fitted inside the access budget on currently-available device
  /// slots (with remapping of the same-instant batch); otherwise it is
  /// delayed — this is what makes every admitted request meet the
  /// guarantee exactly (the paper's flat 0.132507 ms line). Statistical
  /// surplus beyond S: admitted while Q < ε and served from the earliest-
  /// finishing replica, queueing allowed (the Fig. 10 response-time cost).
  void admit_online(SimTime now) {
    matcher_.begin_instant(free_at_, now, L_, cfg_.access_budget, available_,
                           spike_quanta(now));
    matched_ids_.clear();
    surplus_ids_.clear();
    surplus_buckets_.clear();
    const bool none = cfg_.admission == AdmissionMode::kNone;
    const bool stat = cfg_.admission == AdmissionMode::kStatistical;
    bool matching_open = true;
    // With every slot taken the matcher refuses whatever comes next; only
    // worth asking while a backlog is waiting.
    bool full = !none && !rescan_ && !carry_.empty() && matcher_.saturated();
    while (offers_left() > 0) {
      const bool over = !none && admitted_ >= det_limit_now_;
      if (!rescan_ && (over ? !stat || surplus_closed_ : full)) break;
      const auto [idx, bucket] = next_offer(now);
      if (!over && matching_open && matcher_.add(bucket)) {
        matched_ids_.push_back(idx);
        ++admitted_;
        continue;
      }
      // Baseline (kNone): no deferral, queue on the earliest-finishing
      // replica. Statistical surplus likewise; both placements invalidate
      // the matcher's slot view for the rest of the instant.
      if (none || (over && stat && stat_->accept(admitted_, 1) > 0)) {
        matching_open = false;
        surplus_ids_.push_back(idx);
        surplus_buckets_.push_back(bucket);
        if (!none) ++admitted_;
        continue;
      }
      surplus_closed_ = surplus_closed_ || over;
      refused_.push_back(idx);
      if (!over && !rescan_) full = matcher_.saturated();
    }
    dispatch_matched(matched_ids_, now);
    for (std::size_t k = 0; k < surplus_ids_.size(); ++k) {
      const DeviceId best = earliest_replica(surplus_buckets_[k], now);
      out(surplus_ids_[k]).path = RetrievalPath::kSurplus;
      dispatch_request(surplus_ids_[k], best, std::max(free_at_[best], now));
    }
  }

  /// Multi-tenant WFQ front end: fresh reads join their tenant queue
  /// (mark/shed backpressure applied at enqueue), then the scheduler
  /// dispenses the live budget across backlogged tenants in virtual-
  /// finish-time order, reservations honored as floors. The WFQ queues are
  /// the carry-over FIFOs here: while any request waits, one boundary wake
  /// brings the scheduler back, so backlog keeps draining after the last
  /// arrival and every request reaches a final state (dispatched, shed, or
  /// failed).
  void dispense_tenants(SimTime now, std::int64_t qi) {
    fresh_.assign(ts_->tenants(), 0);
    for (const std::size_t id : group_) {
      auto& o = out(id);
      const auto tid = static_cast<std::size_t>(ev(id).tenant);
      const auto verdict = ts_->enqueue(tid, id);
      obs_->tenant_enqueued(now, ev(id).tenant, verdict == WfqQueues::Enqueue::kShed);
      switch (verdict) {
        case WfqQueues::Enqueue::kShed:
          // Hard backpressure: dropped at the front end, never queued.
          // Finalized at the arrival instant so shed requests cannot
          // distort the latency populations.
          o.dispatch = now;
          o.start = now;
          o.finish = now;
          o.failed = true;
          o.path = RetrievalPath::kShed;
          mark_final(id);
          break;
        case WfqQueues::Enqueue::kMarked:
          o.wfq_marked = true;
          [[fallthrough]];
        case WfqQueues::Enqueue::kAccepted:
          ++fresh_[tid];
          break;
      }
    }

    const bool unlimited = cfg_.admission == AdmissionMode::kNone;
    tenant_blocked_.assign(ts_->tenants(), false);

    // The next dispensable head in VFT order, mapped, or nullopt once no
    // tenant has both backlog and budget. A head with every replica down
    // right now either waits (its tenant is blocked for this instant and
    // retries at the boundary) or fails and leaves its queue.
    struct Head {
      std::size_t tid;
      std::size_t id;
      BlockMapper::MapResult m;
    };
    const auto next_head = [&]() -> std::optional<Head> {
      while (const auto tid = ts_->next_candidate(tenant_blocked_, unlimited)) {
        const std::size_t id = ts_->head(*tid);
        obs_->offer();
        const auto m = mapper_.map(ev(id).block);
        if (!all_replicas_down(m.bucket)) return Head{*tid, id, m};
        if (strand(id, m.bucket, now, qi).has_value()) {
          tenant_blocked_[*tid] = true;
          continue;
        }
        ts_->drop_head(*tid);
        out(id).fim_matched = cfg_.mapping == MappingMode::kFim && m.matched;
      }
      return std::nullopt;
    };
    // Dispense `h`: the dispatch instant is when the scheduler releases the
    // request — delay and deferral semantics match the single-tenant
    // admission path.
    const auto dispense = [&](const Head& h) {
      ts_->pop(h.tid, unlimited);
      auto& o = out(h.id);
      o.dispatch = now;
      o.fim_matched = cfg_.mapping == MappingMode::kFim && h.m.matched;
      o.q_ppm = 0;
    };

    if (cfg_.scheduler == SchedulerMode::kPrimaryOnly) {
      while (const auto h = next_head()) {
        ++admitted_;
        dispense(*h);
        out(h->id).path = RetrievalPath::kPrimary;
        const DeviceId dev = primary_replica(h->m.bucket);
        dispatch_request(h->id, dev, std::max(free_at_[dev], now));
      }
    } else if (cfg_.retrieval == RetrievalMode::kIntervalAligned) {
      // Batch path: dispense by budget in VFT order, then schedule the
      // whole batch exactly like the single-tenant aligned path.
      batch_ids_.clear();
      batch_buckets_.clear();
      while (const auto h = next_head()) {
        ++admitted_;
        dispense(*h);
        batch_ids_.push_back(h->id);
        batch_buckets_.push_back(h->m.bucket);
      }
      dispatch_batch(now);
    } else {
      // Online: offer heads to the slot matcher in VFT order. A refused
      // head blocks its tenant for this instant only — the next head in
      // VFT order may still fit, which is what keeps slots from idling
      // while any queue is backlogged. With no admission (kNone) nothing
      // queues across instants: refused heads overflow to their
      // earliest-finishing replica, like the single-tenant baseline.
      matcher_.begin_instant(free_at_, now, L_, cfg_.access_budget, available_,
                             spike_quanta(now));
      matched_ids_.clear();
      bool matching_open = true;
      while (const auto h = next_head()) {
        if (matching_open && matcher_.add(h->m.bucket)) {
          ++admitted_;
          dispense(*h);
          matched_ids_.push_back(h->id);
          continue;
        }
        if (unlimited) {
          // Surplus placements change free_at under the matcher, so the
          // slot view is stale from the first refusal on (same rule as
          // the single-tenant kNone path).
          matching_open = false;
          dispense(*h);
          const DeviceId best = earliest_replica(h->m.bucket, now);
          out(h->id).path = RetrievalPath::kSurplus;
          dispatch_request(h->id, best, std::max(free_at_[best], now));
          continue;
        }
        tenant_blocked_[h->tid] = true;
      }
      // Add order is dispense order, so per-device slots follow the WFQ
      // dispatch order.
      dispatch_matched(matched_ids_, now);
    }

    // Requests still queued wait for the next boundary, where one wake
    // offers the backlog again. One deferral event per request-interval
    // waited: at a boundary the whole backlog waits another interval;
    // mid-interval, only this instant's arrivals start waiting (the older
    // backlog already counts toward the coming boundary). Each tenant
    // queue is a FIFO served from its head, so this instant's arrivals are
    // its last min(fresh, depth) entries.
    std::uint64_t waiting = 0;
    const bool boundary = now % T_ == 0;
    for (std::size_t k = 0; k < ts_->tenants(); ++k) {
      waiting += boundary ? ts_->depth(k) : std::min(fresh_[k], ts_->depth(k));
    }
    if (waiting > 0) {
      obs_->deferrals(waiting);
      wake_ = (qi + 1) * T_;
    }
  }

  // ---- finish ------------------------------------------------------------

  StreamResult finish() {
    if (stat_.has_value()) stat_->end_interval(demand_, admitted_);
    StreamResult res;
    if (tenant_mode_) {
      FLASHQOS_ASSERT(!ts_->backlogged(),
                      "tenant backlog must drain before the replay ends");
      res.tenant_usage.resize(ts_->tenants());
      for (std::size_t k = 0; k < ts_->tenants(); ++k) {
        res.tenant_usage[k] = ts_->usage(k);
      }
    }
    FLASHQOS_ASSERT(win_.empty(),
                    "every request must reach a final state by end of stream");
    obs_->finish(current_qi_, win_.end(), deadline_violations_);
    res.requests = win_.end();
    res.deadline_violations = deadline_violations_;
    if (report_interval_ > 0 && keep_intervals_) {
      if (interval_folds_.size() < slices_total_) {
        interval_folds_.resize(slices_total_);
      }
      res.intervals.reserve(slices_total_);
      for (std::size_t i = 0; i < slices_total_; ++i) {
        res.intervals.push_back(interval_folds_[i].finalize());
      }
    }
    res.overall = overall_fold_.finalize();
    return res;
  }

  // ---- wiring ------------------------------------------------------------
  const decluster::AllocationScheme& scheme_;
  const PipelineConfig& cfg_;
  retrieval::Retriever& retriever_;
  const SimTime T_;
  const SimTime L_;
  BlockMapper mapper_;
  DeterministicAdmission det_;
  SlotMatcher matcher_;  // persists across instants; begin_instant() re-arms
  const bool tenant_mode_;
  bool keep_intervals_ = true;
  FimSource* fim_ = nullptr;
  OutcomeSink* sink_ = nullptr;
  SimTime report_interval_ = 0;

  // ---- window and result folds -------------------------------------------
  SlotWindow win_;               // every ingested request not yet folded
  SimTime last_time_ = 0;        // arrival time of the last ingested event
  bool eof_ = false;
  std::size_t slices_total_ = 0;
  // Inline FIM transactions (FIM mapping, a report interval, no FimSource).
  std::optional<SliceTransactions> fim_tx_;
  OutcomeFold overall_fold_;
  std::vector<OutcomeFold> interval_folds_;
  std::size_t deadline_violations_ = 0;

  // ---- replay state ------------------------------------------------------
  std::optional<StatisticalAdmission> stat_;
  std::optional<TenantScheduler> ts_;
  std::vector<bool> tenant_blocked_;
  std::vector<std::size_t> fresh_;  // this instant's enqueues per tenant

  std::optional<fault::FaultInjector> injector_;
  bool faults_active_ = false;
  SimTime retry_timeout_ = 0;
  std::uint64_t det_limit_now_ = 0;
  // Availability the live budgets were computed for (true = up; empty =
  // all up); update_budgets() runs whenever available_ moves off it.
  std::vector<bool> budget_mask_;
  std::vector<bool> mask_scratch_;
  std::map<std::vector<bool>, std::vector<double>> degraded_tables_;

  std::vector<SimTime> free_at_;  // per device: when its last op finishes
  // The arrival FIFO: requests [fifo_head_, win_.end()) wait for their
  // first dispatch. Stranded reads wait for their retry boundary in retries_.
  std::uint64_t fifo_head_ = 0;
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> retries_;
  // Deferred reads (single-tenant), in seq order, all due at wake_. In
  // tenant mode the WFQ queues hold the backlog and wake_ alone brings the
  // scheduler back at the next boundary.
  std::deque<std::size_t> carry_;
  SimTime wake_ = kNoWake;     // next boundary deferred work is due at
  bool carried_ = false;       // this instant is that boundary
  std::size_t carry_base_ = 0; // carry_ entries not deferred at this instant
  bool rescan_ = false;        // StreamOptions::rescan_for_test

  std::size_t report_idx_ = 0;  // which reporting interval the mapper is built for
  std::int64_t current_qi_ = -1;  // current QoS interval index
  std::uint64_t admitted_ = 0;   // requests admitted in current QoS interval
  std::uint64_t demand_ = 0;     // requests that asked for this interval
  // A statistical surplus offer was refused this interval. accept() is
  // const between end_interval/set_budget calls and admitted_ cannot grow
  // past a refusal, so every later surplus offer this interval would be
  // refused too.
  bool surplus_closed_ = false;

  // Every tally, series, SLO sample and trace record of the replay.
  std::optional<ReplayObs> obs_;

  // Per-instant buffers, hoisted out of the dispatch loop so steady-state
  // scheduling reuses their capacity instead of reallocating every group.
  std::vector<std::size_t> group_;  // this instant's requests, seq order
  std::vector<BucketId> buckets_;
  std::vector<bool> available_;
  std::vector<std::size_t> live_;
  std::vector<BucketId> live_buckets_;
  std::vector<std::size_t> reads_;
  std::vector<BucketId> read_buckets_;
  std::size_t gi_ = 0;  // next group_ member to offer
  std::int32_t q_ppm_ = 0;
  std::vector<std::size_t> refused_;      // offered and deferred, seq order
  std::vector<std::size_t> matched_ids_;  // slot-matched, add order
  std::vector<std::size_t> surplus_ids_;
  std::vector<BucketId> surplus_buckets_;
  std::vector<std::size_t> batch_ids_;    // aligned batch, admission order
  std::vector<BucketId> batch_buckets_;
  std::vector<std::size_t> order_;
  std::vector<SimTime> cursor_;
  std::vector<SimTime> svc_now_;  // per-device effective quanta under spikes
};

/// Keeps every outcome at its trace position and forwards every callback
/// to an optional observer.
class OutcomeCollector final : public OutcomeSink {
 public:
  OutcomeCollector(std::vector<RequestOutcome>& outcomes, OutcomeSink* observer)
      : outcomes_(outcomes), observer_(observer) {}

  void on_outcome(std::uint64_t seq, const trace::TraceEvent& ev,
                  const RequestOutcome& out) override {
    outcomes_[seq] = out;
    if (observer_ != nullptr) observer_->on_outcome(seq, ev, out);
  }

  void on_device_op(const DeviceOp& op) override {
    if (observer_ != nullptr) observer_->on_device_op(op);
  }

 private:
  std::vector<RequestOutcome>& outcomes_;
  OutcomeSink* observer_;
};

}  // namespace

PipelineResult QosPipeline::run(const trace::Trace& t, OutcomeSink* observer) {
  FLASHQOS_EXPECT(trace::valid_trace(t), "pipeline input must be a valid trace");
  PipelineResult result;
  result.outcomes.resize(t.events.size());
  trace::VectorCursor cursor(t);
  OutcomeCollector collector(result.outcomes, observer);
  auto res = run_stream(cursor, nullptr,
                        {.horizon = t.duration() + cfg_.qos_interval,
                         .sink = &collector});
  result.intervals = std::move(res.intervals);
  result.overall = res.overall;
  result.deadline_violations = res.deadline_violations;
  result.tenant_usage = std::move(res.tenant_usage);
  return result;
}

StreamResult QosPipeline::run_stream(trace::TraceCursor& cursor, FimSource* fim,
                                     const StreamOptions& opts) {
  ReplayEngine engine(scheme_, cfg_, retriever_);
  return engine.run(cursor, fim, opts);
}

PipelineResult replay_original(const trace::Trace& t, SimTime service_time,
                               SimTime deadline) {
  PipelineResult result;
  result.outcomes.resize(t.events.size());
  if (t.events.empty()) return result;
  FLASHQOS_EXPECT(valid_trace(t), "replay input must be a valid trace");
  FLASHQOS_EXPECT(t.volumes > 0, "original replay needs the trace volume count");

  flashsim::FlashArray array(
      t.volumes, std::make_shared<flashsim::FixedLatencyModel>(service_time));
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    const auto& e = t.events[i];
    array.submit(flashsim::IoRequest{.id = i,
                                     .device = e.device,
                                     .submit_time = e.time,
                                     .pages = e.size_blocks});
    result.outcomes[i].arrival = e.time;
    result.outcomes[i].dispatch = e.time;
    result.outcomes[i].device = e.device;
  }
  array.run();
  for (const auto& c : array.take_completions()) {
    result.outcomes[c.id].start = c.start;
    result.outcomes[c.id].finish = c.finish;
  }
  OutcomeFold overall;
  for (const auto& o : result.outcomes) {
    if (o.response() > deadline) ++result.deadline_violations;
    overall.add(o);
  }
  result.overall = overall.finalize();
  for (const auto& [begin, end] : trace::report_slices(t)) {
    OutcomeFold slice;
    for (std::size_t i = begin; i < end; ++i) slice.add(result.outcomes[i]);
    result.intervals.push_back(slice.finalize());
  }
  return result;
}

}  // namespace flashqos::core
