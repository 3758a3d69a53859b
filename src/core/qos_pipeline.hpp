// End-to-end QoS pipeline (the paper's full system, §III-§IV).
//
// A pipeline owns the glue: trace events → FIM block mapping → admission
// control → retrieval scheduling → device model → per-interval metrics.
// Two retrieval modes:
//
//  * kIntervalAligned — requests arriving inside an interval are deferred
//    to the next interval boundary and scheduled as one batch with
//    design-theoretic retrieval (+ max-flow remapping). §III-C.
//  * kOnline — requests are served the moment they arrive (FCFS, earliest-
//    finish replica); same-instant bursts are batch-scheduled. §IV-B.
//
// Admission is per QoS interval T: deterministic (≤ S), statistical
// (Q < ε), or none (baseline comparisons). Requests over the budget are
// *delayed* to the next interval (the paper's choice: "canceling the
// requests may effect the running state of applications").
//
// Metric conventions (matching the paper's figures):
//  * response time  = finish − dispatch. Dispatch is when admission releases
//    the request; the flat 0.132507 ms lines in Figs. 8/9 are this metric.
//  * delay          = dispatch − arrival; a request is "delayed" iff
//    admission pushed it to a later interval. Figs. 8(c,d), 9 labels, 12.
//  * end-to-end     = finish − arrival (reported for completeness).
#pragma once

#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/admission.hpp"
#include "core/block_mapper.hpp"
#include "core/tenant_scheduler.hpp"
#include "decluster/allocation.hpp"
#include "fault/fault_plan.hpp"
#include "fim/transaction.hpp"
#include "flashsim/module_model.hpp"
#include "obs/slo.hpp"
#include "retrieval/retriever.hpp"
#include "trace/event.hpp"

namespace flashqos::trace {
class TraceCursor;
}

namespace flashqos::core {

enum class RetrievalMode { kIntervalAligned, kOnline };
enum class AdmissionMode { kNone, kDeterministic, kStatistical };
enum class MappingMode { kModulo, kFim };

/// How a dispatched request picks among its replicas.
///  * kReplicaScheduled — the framework's retrieval machinery (batch DTR +
///    max-flow remapping, earliest-finish for singletons).
///  * kPrimaryOnly — always read the first copy. This is how the paper's
///    RAID-1 baselines behave in Table III (they have an allocation but no
///    retrieval algorithm); a mirrored layout under primary-only reads
///    concentrates each group's load on one device and collapses.
enum class SchedulerMode { kReplicaScheduled, kPrimaryOnly };

/// The largest access budget M a pipeline accepts. The online slot matcher
/// keeps M slots per device (256 KiB per device at this cap), and the
/// guarantee S = (c-1)M² + cM stays far from uint64 for any c. Every
/// in-tree config uses M <= 2.
inline constexpr std::uint32_t kMaxAccessBudget = 65535;

struct PipelineConfig {
  SimTime qos_interval = kBaseInterval;  // T
  std::uint32_t access_budget = 1;       // M
  SimTime service_time = kPageReadLatency;
  RetrievalMode retrieval = RetrievalMode::kOnline;
  AdmissionMode admission = AdmissionMode::kDeterministic;
  SchedulerMode scheduler = SchedulerMode::kReplicaScheduled;
  double epsilon = 0.0;                  // statistical admission budget
  std::vector<double> p_table;           // P_k for statistical admission
  MappingMode mapping = MappingMode::kFim;
  std::uint64_t fim_min_support = 1;
  /// Everything that can go wrong during the replay: scripted outage and
  /// latency-spike windows, seeded generators, hot-spare rebuild, retry
  /// timeouts. Empty plan (the default) = healthy array, bit-identical to
  /// a run without the fault subsystem.
  fault::FaultPlan faults;
  /// Monte-Carlo effort and stream for the *degraded* P_k tables the
  /// adaptive statistical admission re-samples when devices go down (the
  /// healthy table arrives pre-sampled in `p_table`).
  std::size_t p_table_samples = 400;
  std::uint64_t p_table_seed = 7;
  /// Page program time for write requests (extension; the paper's
  /// evaluation is read-only). Writes go to every live replica and bypass
  /// read admission, but they occupy devices — reads defer around them.
  SimTime write_latency = flashsim::kPageWriteLatency;
  /// Multi-tenant WFQ front end. Empty (the default) = single-tenant
  /// pipeline, bit-identical to a build without the tenant subsystem.
  /// Non-empty: every read is queued per its event's tenant index and the
  /// scheduler dispenses the live interval budget across tenants in
  /// virtual-finish-time order, reservations honored as floors
  /// (core/tenant_scheduler.hpp). Statistical admission is not yet
  /// supported with tenants (the surplus rule and the WFQ share interact;
  /// validate() rejects the combination).
  std::vector<TenantSpec> tenants;
  /// Deliberate-defect switches for the fairness oracle's liveness tests
  /// (see WfqKnobs); production configs leave this default.
  WfqKnobs wfq_knobs;
  /// Declarative SLOs evaluated live while this config replays (obs v2).
  /// Non-empty: the pipeline configures obs::SloMonitor::global() at
  /// replay start and feeds it one {total, bad} sample per spec per QoS
  /// window at interval rollovers. Response/miss specs count dispatched
  /// reads whose response exceeds the spec threshold; admission-floor
  /// specs count WFQ enqueue attempts vs sheds. A spec naming a tenant
  /// applies to that tenant's requests only (the name must exist in
  /// `tenants`); an empty tenant means all traffic. One SLO-configured
  /// pipeline at a time: the monitor is process-global.
  std::vector<obs::SloSpec> slos;

  /// Readable diagnostics; empty means the config is coherent. `devices`
  /// bounds fault-plan device ids when nonzero. QosPipeline's constructor
  /// and build_experiment() both call this, so an invalid combination
  /// fails at the boundary with context instead of deep inside the run.
  [[nodiscard]] std::vector<std::string> validate(std::uint32_t devices = 0) const;
};

/// Which serving path a request took. Recorded for observability but part
/// of the result contract: a request served through the daemon must report
/// the in-process replay's path exactly (audited by flashqos_verify
/// --daemon), so instrumentation cannot silently change behaviour.
enum class RetrievalPath : std::uint8_t {
  kUnset = 0,
  kPrimary,         // primary-only scheduler: first live replica
  kSlotMatched,     // online deterministic slot matching (the flat line)
  kSurplus,         // online statistical surplus / no-admission overflow
  kAlignedDtr,      // aligned batch, DTR fast path produced the schedule
  kAlignedMaxFlow,  // aligned batch, max-flow fallback produced it
  kDegraded,        // scheduled around a device outage
  kWrite,           // replicated page program
  kFailed,          // no replica ever available
  kShed,            // dropped at the WFQ front end: tenant queue full
};

[[nodiscard]] const char* to_string(RetrievalPath path) noexcept;

struct RequestOutcome {
  SimTime arrival = 0;
  SimTime dispatch = 0;
  SimTime start = 0;
  SimTime finish = 0;
  DeviceId device = kInvalidDevice;
  bool fim_matched = false;  // bucket came from the FIM mapping table
  bool failed = false;       // all replicas permanently down; never served
  bool is_write = false;     // replicated page program, not a QoS read
  RetrievalPath path = RetrievalPath::kUnset;
  /// Estimated long-run miss probability Q at this request's dispatch
  /// instant, in parts per million (0 outside statistical admission).
  /// Integral so the equivalence audit can compare exactly.
  std::int32_t q_ppm = 0;
  /// Tenant class index (0 outside multi-tenant configs). Part of the
  /// result contract like every other field here.
  std::uint32_t tenant = 0;
  /// ECN-style congestion bit: the tenant queue was at or past its mark
  /// threshold when this request was accepted into it.
  bool wfq_marked = false;

  [[nodiscard]] SimTime delay() const noexcept { return dispatch - arrival; }
  /// A request is "delayed" when it was not dispatched the instant it
  /// arrived — admission deferral in online mode, interval alignment (and
  /// deferral) in aligned mode. This is the population Figs. 8(c,d)/9/12
  /// report on.
  [[nodiscard]] bool deferred() const noexcept { return dispatch > arrival; }
  [[nodiscard]] SimTime response() const noexcept { return finish - dispatch; }
  [[nodiscard]] SimTime end_to_end() const noexcept { return finish - arrival; }
};

struct IntervalReport {
  std::size_t requests = 0;
  double avg_response_ms = 0.0;
  double max_response_ms = 0.0;
  double avg_e2e_ms = 0.0;
  double max_e2e_ms = 0.0;
  std::size_t deferred = 0;
  double pct_deferred = 0.0;      // deferred / requests
  double avg_delay_ms = 0.0;      // mean delay over deferred requests
  double fim_match_rate = 0.0;    // matched / requests
  std::size_t failed = 0;         // requests with no live replica, ever
  std::size_t writes = 0;         // write requests (excluded from read stats)
  double avg_write_ms = 0.0;      // mean write completion (finish - arrival)
};

struct PipelineResult {
  std::vector<IntervalReport> intervals;  // one per trace reporting interval
  std::vector<RequestOutcome> outcomes;   // per request, trace order
  IntervalReport overall;                 // aggregate over all requests
  std::size_t deadline_violations = 0;    // response > qos_interval
  /// Per-tenant WFQ tallies, indexed like PipelineConfig::tenants (empty
  /// for single-tenant configs). The multi-tenant goldens pin them.
  std::vector<TenantUsage> tenant_usage;
};

/// A trace read, one replica's page program of a trace write, or a rebuild read.
enum class DeviceOpKind : std::uint8_t { kRead, kWrite, kRebuild };

/// One span of device time the engine scheduled. Each device serves FIFO,
/// so its ops never overlap: each starts at or after the previous finish.
struct DeviceOp {
  DeviceId device = kInvalidDevice;
  SimTime start = 0;
  SimTime finish = 0;
  DeviceOpKind kind = DeviceOpKind::kRead;
  std::int64_t request = -1;  // seq of the read or write served; -1 = rebuild

  friend bool operator==(const DeviceOp&, const DeviceOp&) = default;
};

/// Observer of finalized streaming outcomes. run_stream() calls
/// on_outcome() once per event, in trace order (seq is the 0-based global
/// ingestion index, strictly increasing), at the moment the outcome folds
/// into the reports — which is exactly when the engine guarantees no field
/// can change again. This is how the service facade routes completions
/// back to live clients without materializing an outcomes vector. The
/// callbacks run on the replay thread; implementations must not re-enter
/// the pipeline.
class OutcomeSink {
 public:
  virtual ~OutcomeSink() = default;
  virtual void on_outcome(std::uint64_t seq, const trace::TraceEvent& ev,
                          const RequestOutcome& out) = 0;
  /// Every device op, in the order the engine schedules them (not trace
  /// order). The default ignores them.
  virtual void on_device_op(const DeviceOp& /*op*/) {}
};

/// Options for the replay core (QosPipeline::run_stream).
struct StreamOptions {
  /// Events pulled from the cursor per fill() call. Any positive value
  /// yields bit-identical results (the engine's read-ahead rule is
  /// batch-agnostic — audited by flashqos_verify --stream); larger batches
  /// amortize the per-batch virtual dispatch.
  std::size_t batch_size = 4096;
  /// Fault-schedule compile horizon. A streaming replay does not know the
  /// trace duration up front, so configs with a non-empty fault plan must
  /// pass the horizon run() uses (last arrival + qos_interval) to
  /// materialize the identical schedule. Ignored (may stay 0) when the
  /// fault plan is empty.
  SimTime horizon = 0;
  /// Retain per-reporting-interval reports (`StreamResult::intervals`).
  /// They are the one result component that grows with trace duration
  /// (one `IntervalReport` per reporting interval); trace-scale replays
  /// that only need the overall report, the deadline count, and the
  /// observability plane set this false to keep memory flat in trace
  /// length. Does not change any other field, metric, or time-series.
  bool keep_intervals = true;
  /// Deliberately break the engine's read-ahead drain bound by one
  /// instant (verification only): groups dispatching exactly at the
  /// ingestion frontier run before later batches deliver their
  /// same-instant members. The stream oracle flips this to prove it
  /// would catch an engine that dispatches ahead of ingestion.
  bool misdrain_for_test = false;
  /// Offer every carried read to admission at every boundary instead of
  /// stopping once the interval's budget is spent (verification only). The
  /// outcomes are identical — the stop rules only skip reads admission
  /// would refuse — but admission work grows with the backlog; the
  /// overload oracle flips this to prove its offers bound can trip.
  /// Single-tenant configs only (tenant backlogs live in the WFQ queues).
  bool rescan_for_test = false;
  /// Optional per-outcome observer (see OutcomeSink). Null = no callback;
  /// results, metrics, and time-series are identical either way.
  OutcomeSink* sink = nullptr;
};

/// Result of a streaming replay: everything PipelineResult carries except
/// the per-request outcomes vector, which would be O(trace) memory — the
/// point of streaming is that nothing here grows with trace length.
struct StreamResult {
  std::vector<IntervalReport> intervals;  // one per trace reporting interval
  IntervalReport overall;                 // aggregate over all requests
  std::uint64_t requests = 0;             // events consumed from the cursor
  std::size_t deadline_violations = 0;    // response > qos_interval
  std::vector<TenantUsage> tenant_usage;  // indexed like cfg.tenants
};

/// Serves the per-reporting-slice FIM mining results to run_stream in
/// place of inline mining. Replays pass null and mine inline; the seam
/// stays because perfbench calls run_stream with this argument. Mining is
/// a pure function of the slice (cut by SliceTransactions), so a source
/// serving mine_event_range slices gives results bit-identical to an
/// inline run.
class FimSource {
 public:
  virtual ~FimSource() = default;
  /// Frequent pairs mined from reporting slice `idx`; may block. The
  /// returned span must stay valid until the next slice() call.
  [[nodiscard]] virtual std::span<const fim::FrequentPair> slice(std::size_t idx) = 0;
};

/// The FIM transaction rule, in one place: fed events in trace order, it
/// builds one transaction database per reporting slice, where each QoS
/// interval's read blocks (event order) form one transaction, cut at slice
/// boundaries. Slices complete in order and wait until taken. A zero
/// report interval makes the whole input one slice. Transactions append
/// into the open slice's flat database through one reused buffer. A run
/// of consecutive empty slices (an idle gap in the arrivals) is held as
/// one count, so a gap costs O(1) however many slices it spans.
class SliceTransactions {
 public:
  SliceTransactions(SimTime qos_interval, SimTime report_interval)
      : qos_interval_(qos_interval),
        report_interval_(report_interval),
        cut_(report_interval > 0 ? report_interval : kNoCut) {}

  /// Append one event (trace order), first closing every slice that ends
  /// at or before its arrival.
  void add(const trace::TraceEvent& e);
  /// Close every slice that ends at or before `t`: no event arriving at or
  /// after `t` can join it.
  void close_until(SimTime t);
  /// End of input: close the slice under construction.
  void finish();
  /// A completed slice is waiting to be taken.
  [[nodiscard]] bool ready() const noexcept { return !done_.empty(); }
  /// Remove and return the oldest completed slice.
  [[nodiscard]] fim::TransactionDb take();
  /// Remove up to `max` completed slices from the front while they have no
  /// transaction; returns how many were removed (0 when the oldest slice
  /// has one, or none is waiting).
  [[nodiscard]] std::size_t skip_empty(std::size_t max);
  /// Completed slices held as separate records; a run of empty slices is
  /// one record.
  [[nodiscard]] std::size_t held() const noexcept { return done_.size(); }

 private:
  static constexpr SimTime kNoCut = std::numeric_limits<SimTime>::max();

  /// `count` completed slices, all equal to `db`: more than one only for a
  /// run of empty slices.
  struct Closed {
    fim::TransactionDb db;
    std::size_t count = 1;
  };

  void close_transaction();
  void close_slice();
  void push_empty(std::size_t n);

  SimTime qos_interval_;
  SimTime report_interval_;
  std::deque<Closed> done_;
  fim::TransactionDb open_;         // the slice under construction
  std::vector<fim::Item> tx_;       // its open transaction (reused buffer)
  std::int64_t window_ = -1;        // QoS interval of tx_; -1 = none yet
  std::size_t slice_ = 0;           // index of open_
  SimTime cut_;                     // where open_ ends; kNoCut = never
};

/// Mine events [begin, end) of `t` as one slice (see SliceTransactions);
/// returned pairs have support >= min_support. Pure and deterministic: the
/// slices it mines over trace::report_slices are the ones the replay loop
/// mines inline.
[[nodiscard]] std::vector<fim::FrequentPair> mine_event_range(
    const trace::Trace& t, std::size_t begin, std::size_t end,
    SimTime qos_interval, std::uint64_t min_support);

/// The single-threaded replay engine. New code should not construct this
/// directly: service::PipelineService wraps it behind a thread-safe facade
/// with the same one-shot run()/run_stream() semantics plus live submit/
/// flush/drain, and is what flashqosd, flashqos_sim, and the examples use.
/// Direct construction remains supported for the engine's own harnesses
/// (oracles, model checker, benches) that need sub-facade access.
class QosPipeline {
 public:
  QosPipeline(const decluster::AllocationScheme& scheme, PipelineConfig cfg);

  /// Run the full pipeline over a trace. Trace block ids are data blocks
  /// (mapped to buckets); with MappingMode::kModulo a bucket-domain trace
  /// whose ids are < buckets() passes through unchanged. This is
  /// run_stream() over a trace::VectorCursor with horizon = last arrival +
  /// qos_interval and a sink that keeps every outcome, so the two agree by
  /// construction. A non-null `observer` also sees every outcome and
  /// device op.
  [[nodiscard]] PipelineResult run(const trace::Trace& t,
                                   OutcomeSink* observer = nullptr);

  /// Streaming replay: pull events from `cursor` in batches without
  /// materializing the trace or the outcomes vector — resident memory is
  /// O(batch + in-flight window), flat in trace length. Interval reports,
  /// the overall report, deadline violations, registry metrics, and
  /// windowed time-series do not depend on the batch size (audited by
  /// flashqos_verify --stream). A non-null `fim` serves the mined FIM
  /// slices in place of inline mining.
  [[nodiscard]] StreamResult run_stream(trace::TraceCursor& cursor,
                                        FimSource* fim = nullptr,
                                        const StreamOptions& opts = {});

 private:
  const decluster::AllocationScheme& scheme_;
  PipelineConfig cfg_;
  /// Retrieval facade owning the solver scratch, reused across every batch
  /// the pipeline schedules. One per pipeline: a replay runs on one thread.
  retrieval::Retriever retriever_;
};

/// Baseline: replay a trace on its original volumes (the paper's "original
/// stand": "every block request is retrieved from the device it is stated
/// in the trace"), with no QoS machinery. response == end-to-end here.
[[nodiscard]] PipelineResult replay_original(const trace::Trace& t,
                                             SimTime service_time = kPageReadLatency,
                                             SimTime deadline = kBaseInterval);

}  // namespace flashqos::core
