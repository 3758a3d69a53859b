// Dinic's maximum-flow algorithm, plus the optimal retrieval solver built
// on it.
//
// Optimal retrieval of b replicated requests on N devices (paper §III-C,
// refs [14][15]) reduces to feasibility flow: source → request (cap 1),
// request → each replica device (cap 1), device → sink (cap M). The batch
// is retrievable in M rounds iff max-flow == b. The optimal round count is
// found by searching M upward from the lower bound ⌈b/N⌉ (it rarely moves
// more than a step or two for design allocations).
//
// The solver is the throughput-critical kernel of the whole framework: the
// P_k sampler calls it thousands of times per (scheme, k) and the per-batch
// fallback path hits it on every off-optimal DTR schedule. It is therefore
// built for reuse: the graph lives in flat CSR arrays (offsets + parallel
// to/rev/cap columns, cache-line friendly, one indirection per edge), every
// scratch buffer (BFS queue, level, iter, staging) is member-owned and
// grow-only, and capacities can be restored in place so a round-count
// search re-solves the same network without rebuilding it. A warm
// MaxFlow/FlowWorkspace performs zero heap allocations per solve.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "retrieval/schedule.hpp"

namespace flashqos::retrieval {

/// General-purpose Dinic max-flow on a small directed graph, reusable
/// across solves. Edges staged by add_edge() are packed into CSR arrays on
/// the first run(); within each node's adjacency the edges keep their
/// declaration order (forward entry appended at the from-node, reverse
/// entry at the to-node, in add_edge order), so traversal — and thus the
/// flow decomposition — is identical to the historical adjacency-list
/// implementation.
class MaxFlow {
 public:
  MaxFlow() = default;
  explicit MaxFlow(std::uint32_t nodes) { begin(nodes); }

  /// Start a new graph with `nodes` nodes, reusing all internal buffers
  /// (no deallocation; a warm instance rebuilds without touching the heap).
  void begin(std::uint32_t nodes);

  /// Add a directed edge with the given capacity; returns an edge id that
  /// can be queried with flow_on() after run().
  std::uint32_t add_edge(std::uint32_t from, std::uint32_t to, std::int64_t capacity);

  /// Compute the max flow from s to t over the edges staged so far.
  std::int64_t run(std::uint32_t s, std::uint32_t t);

  /// Raise edge `id`'s capacity by `delta` and push any newly unlocked
  /// flow, *reusing* the existing residual network. Returns the additional
  /// flow found. This is the primitive behind the integrated min-rounds
  /// solver (paper ref [15]): stepping the round count M -> M+1 only
  /// raises device→sink capacities, so the previous rounds' flow is still
  /// valid and only the increment needs augmenting.
  std::int64_t raise_capacity_and_rerun(std::uint32_t id, std::int64_t delta,
                                        std::uint32_t s, std::uint32_t t);

  /// Restore every edge to its initial capacity (drop all routed flow) so
  /// the same network can be re-solved with adjusted capacities. Only valid
  /// after the CSR graph has been built by a run().
  void reset_capacities();

  /// Rewrite edge `id`'s capacity in place (initial and residual alike) and
  /// zero its reverse residual. Only meaningful on a flow-free network —
  /// call reset_capacities() first.
  void set_capacity(std::uint32_t id, std::int64_t capacity);

  /// Flow routed through edge `id` after run().
  [[nodiscard]] std::int64_t flow_on(std::uint32_t id) const;

 private:
  struct StagedEdge {
    std::uint32_t from;
    std::uint32_t to;
    std::int64_t cap;
  };

  void build();
  bool bfs(std::uint32_t s, std::uint32_t t);
  std::int64_t dfs(std::uint32_t v, std::uint32_t t, std::int64_t pushed);

  std::uint32_t nodes_ = 0;
  bool built_ = false;
  std::vector<StagedEdge> staged_;

  // CSR adjacency: entries [offset_[v], offset_[v+1]) are node v's edges.
  // Parallel columns; rev_ holds the flat index of the paired residual edge.
  std::vector<std::uint32_t> offset_;
  std::vector<std::uint32_t> to_;
  std::vector<std::uint32_t> rev_;
  std::vector<std::int64_t> cap_;
  std::vector<std::int64_t> initial_cap_;
  std::vector<std::uint32_t> edge_pos_;  // edge id -> flat index of forward entry

  // Per-solve scratch, member-owned so bfs/dfs never allocate.
  std::vector<std::uint32_t> fill_;   // scatter cursors during build()
  std::vector<std::int32_t> level_;
  std::vector<std::uint32_t> iter_;
  std::vector<std::uint32_t> queue_;  // BFS frontier
};

/// Reusable retrieval-flow workspace: the feasibility network for one
/// (batch, scheme) pair, its flat replica-edge index (stride = copies), and
/// the schedule-extraction buffers. One workspace serves any sequence of
/// shapes — buffers grow to the largest shape seen and are then reused
/// allocation-free. Not thread-safe; own one per thread.
class FlowWorkspace {
 public:
  /// Build the retrieval feasibility network (source → requests → replica
  /// devices → sink) and solve it. Devices with available[d] == false
  /// contribute zero-capacity edges (empty mask = all up). Returns true iff
  /// the whole batch fits in `rounds` parallel accesses.
  bool solve(std::span<const BucketId> batch,
             const decluster::AllocationScheme& scheme, std::uint32_t rounds,
             const std::vector<bool>& available = {});

  /// Re-solve the network built by the last solve() with a different round
  /// budget: capacities are restored in place, no graph rebuild. Must
  /// follow a solve() for the same batch.
  bool resolve(std::uint32_t rounds);

  /// Heterogeneous variant: device d may serve at most caps[d] requests
  /// (negative treated as 0). Returns true iff the batch is assignable.
  bool solve_capacities(std::span<const BucketId> batch,
                        const decluster::AllocationScheme& scheme,
                        std::span<const std::int64_t> caps);

  /// In-place capacity swap for the network built by solve_capacities().
  bool resolve_capacities(std::span<const std::int64_t> caps);

  /// Integrated min-rounds solve (paper ref [15]): build once at the lower
  /// bound ⌈b/N⌉ and grow device capacities round by round, keeping all
  /// previously routed flow. Returns the minimal round count; extract the
  /// schedule with extract_schedule().
  std::uint32_t solve_integrated(std::span<const BucketId> batch,
                                 const decluster::AllocationScheme& scheme);

  /// Pack the last feasible solve into `out` (first saturated replica per
  /// request, round numbers dealt per device). Reuses out's buffers; leaves
  /// out.via untouched — the caller labels the solver.
  void extract_schedule(std::span<const BucketId> batch,
                        const decluster::AllocationScheme& scheme, Schedule& out);

  /// Device choice per request of the last feasible solve (heterogeneous
  /// callers do their own start-offset packing).
  void extract_devices(std::span<const BucketId> batch,
                       const decluster::AllocationScheme& scheme,
                       std::vector<DeviceId>& out);

  [[nodiscard]] std::int64_t flow() const noexcept { return flow_value_; }

 private:
  void build_network(std::span<const BucketId> batch,
                     const decluster::AllocationScheme& scheme);

  MaxFlow mf_;
  std::vector<std::uint32_t> replica_edges_;  // flat, stride = copies
  std::vector<std::uint32_t> device_edges_;   // device -> sink edge ids
  std::vector<std::uint8_t> device_up_;       // availability at build time
  std::vector<std::uint32_t> next_round_;     // extraction scratch
  std::uint32_t b_ = 0;
  std::uint32_t n_ = 0;
  std::uint32_t c_ = 0;
  std::int64_t flow_value_ = 0;
};

/// Can `batch` be retrieved in at most `rounds` parallel accesses? If yes,
/// returns the witnessing schedule (round numbers packed per device).
[[nodiscard]] std::optional<Schedule> feasible_in_rounds(
    std::span<const BucketId> batch, const decluster::AllocationScheme& scheme,
    std::uint32_t rounds);

/// Degraded-mode variant: only devices with available[d] == true may serve.
/// (Replication makes the array failure-tolerant: with f < c failed
/// devices every bucket keeps >= c-f live replicas, and the restriction of
/// a λ=1 design to surviving devices is still a linear space, so the
/// weaker guarantee S = (c-f-1)M² + (c-f)M keeps holding.)
[[nodiscard]] std::optional<Schedule> feasible_in_rounds(
    std::span<const BucketId> batch, const decluster::AllocationScheme& scheme,
    std::uint32_t rounds, const std::vector<bool>& available);

/// Workspace-reusing form: true iff feasible, filling `out` (buffers
/// reused) with the witnessing schedule. Bit-identical to the value form.
[[nodiscard]] bool feasible_in_rounds(std::span<const BucketId> batch,
                                      const decluster::AllocationScheme& scheme,
                                      std::uint32_t rounds,
                                      const std::vector<bool>& available,
                                      FlowWorkspace& ws, Schedule& out);

/// Minimum-round schedule via flow feasibility search. Always succeeds (at
/// worst every request serializes on one device).
[[nodiscard]] Schedule optimal_schedule(std::span<const BucketId> batch,
                                        const decluster::AllocationScheme& scheme);

/// Degraded-mode variant; nullopt iff some request has no live replica.
[[nodiscard]] std::optional<Schedule> optimal_schedule(
    std::span<const BucketId> batch, const decluster::AllocationScheme& scheme,
    const std::vector<bool>& available);

/// Workspace-reusing form: the feasibility search builds the network once
/// and re-solves in place per round step. False iff some request has no
/// live replica (then `out` is unspecified).
[[nodiscard]] bool optimal_schedule(std::span<const BucketId> batch,
                                    const decluster::AllocationScheme& scheme,
                                    const std::vector<bool>& available,
                                    FlowWorkspace& ws, Schedule& out);

/// Integrated min-rounds solver (paper ref [15], Altiparmak & Tosun,
/// ICPP 2012): builds the retrieval flow network once and *grows* the
/// device capacities round by round, keeping all previously routed flow.
/// Produces exactly the same schedules as optimal_schedule() but touches
/// each edge once per increment instead of re-solving from scratch — see
/// micro_retrieval_cost for the measured difference.
[[nodiscard]] Schedule integrated_optimal_schedule(
    std::span<const BucketId> batch, const decluster::AllocationScheme& scheme);

/// Workspace-reusing form of the integrated solver.
void integrated_optimal_schedule(std::span<const BucketId> batch,
                                 const decluster::AllocationScheme& scheme,
                                 FlowWorkspace& ws, Schedule& out);

}  // namespace flashqos::retrieval
