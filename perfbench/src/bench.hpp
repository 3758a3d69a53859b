// Shared declarations of the repository benchmark (see ../README.md).
//
// A workload turns a seed into inputs (set-up), replays them through the
// program's public APIs in timed repetitions, and checks the outcomes.
// The traced mode adds spans around the benchmark's calls into each layer
// and standalone timings of single layers over the workload's own inputs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/qos_pipeline.hpp"
#include "decluster/schemes.hpp"
#include "measure.hpp"
#include "net/frame.hpp"
#include "trace/cursor.hpp"

namespace perfbench {

namespace fq = flashqos;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  // smoke-test scale
  std::string out_dir = ".bench_build/perfbench/out";
  std::string commit = "unknown";
  std::string command;
};

/// Correctness gates: every check is counted; a failure fails the run and
/// adds its operations to the failed count.
class Gates {
 public:
  void check(const std::string& name, bool ok, std::uint64_t ops_if_failed = 1);
  [[nodiscard]] bool all_passed() const noexcept { return failed_checks_ == 0; }
  [[nodiscard]] std::uint64_t failed_ops() const noexcept { return failed_ops_; }
  void print() const;

 private:
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> tally_;  // pass, fail
  std::uint64_t failed_checks_ = 0;
  std::uint64_t failed_ops_ = 0;
};

/// Fold of served outcomes: what the end-to-end QoS metrics and the
/// conservation/identity gates are computed from.
struct OutcomeStats {
  std::uint64_t outcomes = 0;
  std::uint64_t reads = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t deferred = 0;
  std::uint64_t deadline_miss = 0;
  fq::SimTime first_arrival = INT64_MAX;
  fq::SimTime last_finish = 0;
  LogHistogram response_ns;
  LogHistogram e2e_ns;
  Digest digest;

  void add(const fq::net::WireCompletion& wire, const fq::core::RequestOutcome& o,
           fq::SimTime deadline);
};

/// Everything one timed repetition needs, built from the seed.
struct Setup {
  std::unique_ptr<fq::decluster::DesignTheoretic> scheme;
  fq::core::PipelineConfig cfg;
  fq::trace::TraceMeta meta;
  fq::trace::Trace trace;              // materialized events (tpce, daemon)
  std::string file;                    // DiskSim input (exchange)
  std::vector<std::uint8_t> buckets;   // pre-drawn buckets (onoff)
  std::uint64_t requests = 0;          // stream length
  std::uint64_t ref_digest = 0;        // in-process replay of the stream
};

/// One timed repetition.
struct Rep {
  std::size_t index = 0;  // position in its series of repetitions
  bool nodelay = false;   // wire sessions: TCP_NODELAY set on the client socket
  double wall_s = 0.0;
  double setup_s = 0.0;  // per-repetition set-up (daemon start + connect)
  std::uint64_t submitted = 0;
  std::uint64_t pushbacks = 0;
  std::uint64_t dropped = 0;
  std::uint64_t clamped = 0;
  std::uint64_t parse_errors = 0;
  LogHistogram rtt_ns;  // wire sessions: submit frame sent -> completion received
  fq::core::StreamResult result;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  /// Online deterministic admission: the paper's zero-miss guarantee holds.
  [[nodiscard]] virtual bool guaranteed() const { return true; }
  [[nodiscard]] virtual bool over_wire() const { return false; }
  virtual void setup(Setup& s, const Options& opt) = 0;
  /// A fresh cursor over the workload's whole stream, for in-process replay.
  [[nodiscard]] virtual std::unique_ptr<fq::trace::TraceCursor> open(const Setup& s) = 0;
  /// Once per run, untimed: workload-specific gates.
  virtual void validate(Setup& /*s*/, const Options& /*opt*/, Gates& /*g*/) {}
  /// One timed repetition of the end-to-end path.
  virtual void run(Setup& s, Rep& rep, OutcomeStats& stats, SpanLog* log);
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

/// Cursor decorator: times fill() (span "trace.fill") and counts the
/// events handed to the engine.
class TimedCursor final : public fq::trace::TraceCursor {
 public:
  TimedCursor(fq::trace::TraceCursor& inner, SpanLog* log) : inner_(inner), log_(log) {}
  [[nodiscard]] const fq::trace::TraceMeta& meta() const noexcept override { return inner_.meta(); }
  [[nodiscard]] std::size_t fill(std::span<fq::trace::TraceEvent> out) override;
  void reset() override { inner_.reset(); }
  [[nodiscard]] fq::SimTime frontier() const noexcept override { return inner_.frontier(); }
  [[nodiscard]] bool exhausted() const noexcept override { return inner_.exhausted(); }
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }

 private:
  fq::trace::TraceCursor& inner_;
  SpanLog* log_;
  std::uint64_t delivered_ = 0;
};

/// Sink of an in-process replay: folds every outcome and optionally keeps
/// the first `capture` outcomes for the standalone layer timings.
class StatsSink final : public fq::core::OutcomeSink {
 public:
  StatsSink(OutcomeStats& stats, fq::SimTime deadline) : stats_(stats), deadline_(deadline) {}
  void on_outcome(std::uint64_t seq, const fq::trace::TraceEvent& ev,
                  const fq::core::RequestOutcome& out) override;
  std::size_t capture = 0;
  std::vector<fq::core::RequestOutcome> captured;

 private:
  OutcomeStats& stats_;
  fq::SimTime deadline_;
};

/// Replay `inner` in process (span "core.run_stream" around the call);
/// fills rep.wall_s, rep.submitted and rep.result.
/// With `captured`, keeps the first `capture` outcomes.
void replay(const Setup& s, fq::trace::TraceCursor& inner, OutcomeStats& stats, Rep& rep,
            SpanLog* log, std::size_t capture = 0,
            std::vector<fq::core::RequestOutcome>* captured = nullptr);

/// Gates every repetition passes: conservation, the zero-miss guarantee on
/// online deterministic workloads, outcome identity with the in-process
/// reference replay, and no clamped, pushed-back, dropped or unparsable
/// requests.
void check_rep(const Workload& w, const Setup& s, const Rep& rep, const OutcomeStats& stats,
               Gates& g);

/// Repetitions until `seconds` have passed (at least `min_reps`), after
/// untimed warm-up repetitions filling `warmup_s` (none when it is 0);
/// calls `each(rep, stats)` after every timed repetition. Every repetition
/// is gated. Repetitions rotate over the CPUs (CpuRotation); the threads
/// a wire session starts inherit its CPU.
template <typename Each>
void repeat(Workload& w, Setup& s, double warmup_s, double seconds, std::size_t min_reps,
            SpanLog* log, Gates& g, Each&& each) {
  const std::int64_t t_warm = now_ns();
  for (std::size_t i = 0; static_cast<double>(now_ns() - t_warm) < warmup_s * 1e9; ++i) {
    Rep rep;
    rep.index = i;
    OutcomeStats stats;
    w.run(s, rep, stats, nullptr);
    check_rep(w, s, rep, stats, g);
  }
  CpuRotation rotation;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0;
       i < min_reps || static_cast<double>(now_ns() - t0) < seconds * 1e9; ++i) {
    Rep rep;
    rep.index = i;
    OutcomeStats stats;
    rotation.pin(i);
    if (log != nullptr) log->next_run();
    {
      Scoped root(log, "rep");
      w.run(s, rep, stats, log);
    }
    check_rep(w, s, rep, stats, g);
    each(rep, stats);
  }
}

/// First `n` events of the workload's stream, materialized.
[[nodiscard]] fq::trace::Trace prefix(Workload& w, const Setup& s, std::size_t n);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Traced run: per-layer metrics (appended to `out`) from spans, registry
/// counters and standalone layer timings over the workload's inputs.
void run_traced(Workload& w, Setup& s, const Options& opt, Gates& g, Metrics& out,
                SpanLog& log, std::uint64_t& attempted);

}  // namespace perfbench
