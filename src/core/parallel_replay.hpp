// Parallel trace-replay engine.
//
// Two sharding axes, both chosen so results are bit-identical to the
// serial QosPipeline:
//
//  1. Experiment sharding (run_jobs): the paper's figures sweep many
//     independent (design, config, trace) combinations; each job is one
//     full serial replay on a pool worker, writing into a pre-sized result
//     slot indexed by job id. No job shares mutable state with another, so
//     the sweep is thread-count- and schedule-invariant. This is the QoS
//     framework's own independence structure — per-interval guarantees and
//     per-array isolation — applied at the experiment level.
//
//  2. Stage pipelining (run): a single interval-aligned replay decomposes
//     into decode → FIM mining → admission → retrieval scheduling →
//     flashsim → metrics. The decode+mine stage is a pure function of each
//     reporting slice, so workers mine slices ahead of the replay core and
//     hand them over a bounded HandoffQueue (interval batches, re-sequenced
//     by slice id); the admission/scheduling/flashsim stages share the
//     dispatch clock and device free times, so they stay one serial core
//     on the calling thread, which also folds the reports as outcomes
//     finalize. kOnline mode falls back to the plain serial path: its FCFS
//     dispatch order is load-bearing (§IV-B), and we do not split a stage
//     whose ordering carries semantics.
//
// Determinism rules (enforced by verify::verify_replay_equivalence and
// tests/parallel_replay_test.cpp):
//  * every shard writes only to its own pre-sized slot — no accumulation
//    order dependence;
//  * mined FIM slices are pure functions of (trace, slice, T, support);
//  * any randomness in shard setup derives from shard_seed(seed, shard)
//    (util/rng.hpp), never from a stream shared across shards.
//
// The engine is externally synchronized: drive it from one thread at a
// time (concurrent run/run_jobs calls would interleave on pool.wait()).
#pragma once

#include <span>
#include <vector>

#include "core/qos_pipeline.hpp"
#include "trace/cursor.hpp"
#include "util/thread_pool.hpp"

namespace flashqos::core {

/// One experiment shard of a sweep: scheme and trace are borrowed (must
/// outlive the run_jobs call); several jobs may share one trace.
struct ReplayJob {
  const decluster::AllocationScheme* scheme = nullptr;
  const trace::Trace* trace = nullptr;
  PipelineConfig config;
};

struct ParallelReplayOptions {
  std::size_t threads = 0;  // 0 = hardware concurrency
  /// Capacity of the mined-slice handoff queue: how many reporting
  /// intervals the decode+mine stage may run ahead of the replay core
  /// before backpressure blocks it. Memory is O(lookahead), not O(trace).
  std::size_t mining_lookahead = 8;
};

class ParallelReplayEngine {
 public:
  explicit ParallelReplayEngine(ParallelReplayOptions opts = {});

  [[nodiscard]] std::size_t threads() const noexcept { return pool_.size(); }

  /// The engine's worker pool, for callers that want to co-schedule their
  /// own shards (e.g. experiment building) on the same threads.
  [[nodiscard]] ThreadPool& pool() noexcept { return pool_; }

  /// Shard a multi-configuration sweep across the pool. results[i] is
  /// bit-identical to QosPipeline(*jobs[i].scheme, jobs[i].config)
  /// .run(*jobs[i].trace). If any job throws, the lowest-index exception
  /// is rethrown after every job has finished.
  [[nodiscard]] std::vector<PipelineResult> run_jobs(std::span<const ReplayJob> jobs);

  /// Replay one trace with stage pipelining (see file comment); falls back
  /// to the serial QosPipeline for RetrievalMode::kOnline. Bit-identical
  /// to the serial engine in every mode.
  [[nodiscard]] PipelineResult run(const decluster::AllocationScheme& scheme,
                                   const PipelineConfig& cfg, const trace::Trace& t);

  /// Streaming twin of run(): replay a cursor stream with the decode+mine
  /// stage running ahead on a pool worker. The producer opens its *own*
  /// cursor from `factory` (two independent passes over the stream), builds
  /// each reporting slice's transaction database incrementally — O(slice)
  /// memory, never the trace — mines it, and hands the pairs over the
  /// bounded queue; the serial streaming core consumes them in slice order.
  /// Falls back to QosPipeline::run_stream inline mining when there is no
  /// mining stage to run ahead (kOnline ordering is load-bearing, modulo
  /// mapping and interval-free traces have nothing to mine). Bit-identical
  /// to the serial streaming path, which is bit-identical to run() on the
  /// materialized trace (flashqos_verify --stream audits both).
  [[nodiscard]] StreamResult run_stream(const decluster::AllocationScheme& scheme,
                                        const PipelineConfig& cfg,
                                        const trace::CursorFactory& factory,
                                        const StreamOptions& opts = {});

 private:
  [[nodiscard]] PipelineResult run_pipelined(
      const decluster::AllocationScheme& scheme, const PipelineConfig& cfg,
      const trace::Trace& t);

  ParallelReplayOptions opts_;
  ThreadPool pool_;
};

}  // namespace flashqos::core
