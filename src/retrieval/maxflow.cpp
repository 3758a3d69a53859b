#include "retrieval/maxflow.hpp"

#include <algorithm>
#include <limits>

#include "design/block_design.hpp"
#include "obs/metrics.hpp"
#include "util/expect.hpp"

namespace flashqos::retrieval {

namespace {

/// Workspace reuse counters, resolved once. `builds` counts full network
/// constructions (CSR scatter + first solve), `reuses` counts in-place
/// capacity-restore re-solves that skipped the rebuild. The delta-based
/// cross-check lives in `flashqos_verify --obs`.
struct FlowWsMetrics {
  obs::Counter& builds;
  obs::Counter& reuses;

  static FlowWsMetrics& get() {
    static FlowWsMetrics m{
        obs::MetricRegistry::global().counter("retrieval.flow_ws.builds"),
        obs::MetricRegistry::global().counter("retrieval.flow_ws.reuses"),
    };
    return m;
  }
};

}  // namespace

void MaxFlow::begin(std::uint32_t nodes) {
  nodes_ = nodes;
  built_ = false;
  staged_.clear();
}

std::uint32_t MaxFlow::add_edge(std::uint32_t from, std::uint32_t to,
                                std::int64_t capacity) {
  FLASHQOS_EXPECT(from < nodes_ && to < nodes_, "edge endpoint out of range");
  FLASHQOS_EXPECT(capacity >= 0, "capacity must be non-negative");
  FLASHQOS_EXPECT(!built_, "add_edge after run(); begin() a new graph first");
  const auto id = static_cast<std::uint32_t>(staged_.size());
  // flashqos-lint: allow(hot-path-alloc): staged edges retain capacity across begin()
  staged_.push_back({from, to, capacity});
  return id;
}

void MaxFlow::build() {
  if (built_) return;
  // Counting-sort scatter in declaration order: each staged edge appends
  // its forward entry at the from-node and its reverse entry at the
  // to-node, exactly as the historical adjacency-list push_backs did, so
  // per-node edge order (and thus Dinic's traversal) is unchanged.
  offset_.assign(nodes_ + 1, 0);
  for (const auto& e : staged_) {
    ++offset_[e.from + 1];
    ++offset_[e.to + 1];
  }
  for (std::uint32_t v = 0; v < nodes_; ++v) offset_[v + 1] += offset_[v];
  const auto entries = static_cast<std::size_t>(offset_[nodes_]);
  to_.resize(entries);
  rev_.resize(entries);
  cap_.resize(entries);
  initial_cap_.resize(entries);
  edge_pos_.resize(staged_.size());
  fill_.assign(offset_.begin(), offset_.end() - 1);
  for (std::uint32_t id = 0; id < staged_.size(); ++id) {
    const auto& e = staged_[id];
    const auto fwd = fill_[e.from]++;
    const auto bwd = fill_[e.to]++;
    to_[fwd] = e.to;
    rev_[fwd] = bwd;
    cap_[fwd] = e.cap;
    initial_cap_[fwd] = e.cap;
    to_[bwd] = e.from;
    rev_[bwd] = fwd;
    cap_[bwd] = 0;
    initial_cap_[bwd] = 0;
    edge_pos_[id] = fwd;
  }
  built_ = true;
}

bool MaxFlow::bfs(std::uint32_t s, std::uint32_t t) {
  level_.assign(nodes_, -1);
  queue_.clear();
  level_[s] = 0;
  // flashqos-lint: allow(hot-path-alloc): BFS queue retains capacity across runs
  queue_.push_back(s);
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const auto v = queue_[head];
    const auto vl = level_[v];
    for (auto i = offset_[v]; i < offset_[v + 1]; ++i) {
      const auto w = to_[i];
      if (cap_[i] > 0 && level_[w] < 0) {
        level_[w] = vl + 1;
        // flashqos-lint: allow(hot-path-alloc): BFS queue retains capacity across runs
        queue_.push_back(w);
      }
    }
  }
  return level_[t] >= 0;
}

std::int64_t MaxFlow::dfs(std::uint32_t v, std::uint32_t t, std::int64_t pushed) {
  if (v == t) return pushed;
  for (auto& i = iter_[v]; i < offset_[v + 1]; ++i) {
    const auto w = to_[i];
    if (cap_[i] > 0 && level_[v] < level_[w]) {
      const std::int64_t d = dfs(w, t, std::min(pushed, cap_[i]));
      if (d > 0) {
        cap_[i] -= d;
        cap_[rev_[i]] += d;
        return d;
      }
    }
  }
  return 0;
}

std::int64_t MaxFlow::run(std::uint32_t s, std::uint32_t t) {
  FLASHQOS_EXPECT(s != t, "source and sink must differ");
  build();
  std::int64_t flow = 0;
  while (bfs(s, t)) {
    iter_.assign(offset_.begin(), offset_.end() - 1);
    while (const std::int64_t f = dfs(s, t, std::numeric_limits<std::int64_t>::max())) {
      flow += f;
    }
  }
  return flow;
}

std::int64_t MaxFlow::raise_capacity_and_rerun(std::uint32_t id, std::int64_t delta,
                                               std::uint32_t s, std::uint32_t t) {
  FLASHQOS_EXPECT(id < edge_pos_.size() && built_, "edge id out of range");
  FLASHQOS_EXPECT(delta >= 0, "capacity can only grow incrementally");
  const auto pos = edge_pos_[id];
  cap_[pos] += delta;
  initial_cap_[pos] += delta;
  // Existing flow stays valid; only the new headroom needs augmenting.
  std::int64_t extra = 0;
  while (bfs(s, t)) {
    iter_.assign(offset_.begin(), offset_.end() - 1);
    while (const std::int64_t f = dfs(s, t, std::numeric_limits<std::int64_t>::max())) {
      extra += f;
    }
  }
  return extra;
}

void MaxFlow::reset_capacities() {
  FLASHQOS_EXPECT(built_, "reset_capacities before first run()");
  cap_ = initial_cap_;
}

void MaxFlow::set_capacity(std::uint32_t id, std::int64_t capacity) {
  FLASHQOS_EXPECT(id < edge_pos_.size() && built_, "edge id out of range");
  FLASHQOS_EXPECT(capacity >= 0, "capacity must be non-negative");
  const auto pos = edge_pos_[id];
  cap_[pos] = capacity;
  initial_cap_[pos] = capacity;
  cap_[rev_[pos]] = 0;
}

std::int64_t MaxFlow::flow_on(std::uint32_t id) const {
  FLASHQOS_EXPECT(id < edge_pos_.size() && built_, "edge id out of range");
  const auto pos = edge_pos_[id];
  return initial_cap_[pos] - cap_[pos];
}

// ---------------------------------------------------------------------------
// FlowWorkspace

void FlowWorkspace::build_network(std::span<const BucketId> batch,
                                  const decluster::AllocationScheme& scheme) {
  b_ = static_cast<std::uint32_t>(batch.size());
  n_ = scheme.devices();
  c_ = scheme.copies();
  // Node layout: 0 = source, 1..b = requests, b+1..b+n = devices, b+n+1 = sink.
  mf_.begin(b_ + n_ + 2);
  replica_edges_.clear();
  device_edges_.clear();
}

bool FlowWorkspace::solve(std::span<const BucketId> batch,
                          const decluster::AllocationScheme& scheme,
                          std::uint32_t rounds, const std::vector<bool>& available) {
  FLASHQOS_EXPECT(available.empty() || available.size() == scheme.devices(),
                  "availability mask must cover every device");
  build_network(batch, scheme);
  device_up_.assign(n_, 1);
  if (!available.empty()) {
    for (std::uint32_t d = 0; d < n_; ++d) device_up_[d] = available[d] ? 1 : 0;
  }
  const std::uint32_t source = 0;
  const std::uint32_t sink = b_ + n_ + 1;
  for (std::uint32_t i = 0; i < b_; ++i) {
    mf_.add_edge(source, 1 + i, 1);
    for (const auto dev : scheme.replicas(batch[i])) {
      // A failed replica simply contributes no edge; the request is only
      // servable through live devices.
      // flashqos-lint: allow(hot-path-alloc): workspace retains capacity across builds
      replica_edges_.push_back(
          mf_.add_edge(1 + i, b_ + 1 + dev, device_up_[dev] ? 1 : 0));
    }
  }
  for (std::uint32_t d = 0; d < n_; ++d) {
    // flashqos-lint: allow(hot-path-alloc): workspace retains capacity across builds
    device_edges_.push_back(mf_.add_edge(b_ + 1 + d, sink, device_up_[d] ? rounds : 0));
  }
  flow_value_ = mf_.run(source, sink);
  if constexpr (obs::kEnabled) FlowWsMetrics::get().builds.inc();
  return flow_value_ == b_;
}

bool FlowWorkspace::resolve(std::uint32_t rounds) {
  FLASHQOS_EXPECT(device_edges_.size() == n_, "resolve() requires a prior solve()");
  mf_.reset_capacities();
  for (std::uint32_t d = 0; d < n_; ++d) {
    mf_.set_capacity(device_edges_[d], device_up_[d] ? rounds : 0);
  }
  flow_value_ = mf_.run(0, b_ + n_ + 1);
  if constexpr (obs::kEnabled) FlowWsMetrics::get().reuses.inc();
  return flow_value_ == b_;
}

bool FlowWorkspace::solve_capacities(std::span<const BucketId> batch,
                                     const decluster::AllocationScheme& scheme,
                                     std::span<const std::int64_t> caps) {
  FLASHQOS_EXPECT(caps.size() == scheme.devices(),
                  "capacity vector must cover every device");
  build_network(batch, scheme);
  device_up_.assign(n_, 1);
  const std::uint32_t source = 0;
  const std::uint32_t sink = b_ + n_ + 1;
  for (std::uint32_t i = 0; i < b_; ++i) {
    mf_.add_edge(source, 1 + i, 1);
    for (const auto dev : scheme.replicas(batch[i])) {
      // flashqos-lint: allow(hot-path-alloc): workspace retains capacity across builds
      replica_edges_.push_back(mf_.add_edge(1 + i, b_ + 1 + dev, 1));
    }
  }
  for (std::uint32_t d = 0; d < n_; ++d) {
    // flashqos-lint: allow(hot-path-alloc): workspace retains capacity across builds
    device_edges_.push_back(
        mf_.add_edge(b_ + 1 + d, sink, std::max<std::int64_t>(caps[d], 0)));
  }
  flow_value_ = mf_.run(source, sink);
  if constexpr (obs::kEnabled) FlowWsMetrics::get().builds.inc();
  return flow_value_ == b_;
}

bool FlowWorkspace::resolve_capacities(std::span<const std::int64_t> caps) {
  FLASHQOS_EXPECT(device_edges_.size() == n_ && caps.size() == n_,
                  "resolve_capacities() requires a prior solve_capacities()");
  mf_.reset_capacities();
  for (std::uint32_t d = 0; d < n_; ++d) {
    mf_.set_capacity(device_edges_[d], std::max<std::int64_t>(caps[d], 0));
  }
  flow_value_ = mf_.run(0, b_ + n_ + 1);
  if constexpr (obs::kEnabled) FlowWsMetrics::get().reuses.inc();
  return flow_value_ == b_;
}

std::uint32_t FlowWorkspace::solve_integrated(std::span<const BucketId> batch,
                                              const decluster::AllocationScheme& scheme) {
  build_network(batch, scheme);
  device_up_.assign(n_, 1);
  const std::uint32_t source = 0;
  const std::uint32_t sink = b_ + n_ + 1;
  for (std::uint32_t i = 0; i < b_; ++i) {
    mf_.add_edge(source, 1 + i, 1);
    for (const auto dev : scheme.replicas(batch[i])) {
      // flashqos-lint: allow(hot-path-alloc): workspace retains capacity across builds
      replica_edges_.push_back(mf_.add_edge(1 + i, b_ + 1 + dev, 1));
    }
  }
  // Device→sink capacities start at the lower bound ⌈b/N⌉ and grow one
  // round at a time; flow routed in earlier iterations is never discarded.
  const auto lower = static_cast<std::uint32_t>(design::optimal_accesses(b_, n_));
  for (std::uint32_t d = 0; d < n_; ++d) {
    // flashqos-lint: allow(hot-path-alloc): workspace retains capacity across builds
    device_edges_.push_back(mf_.add_edge(b_ + 1 + d, sink, lower));
  }
  flow_value_ = mf_.run(source, sink);
  if constexpr (obs::kEnabled) FlowWsMetrics::get().builds.inc();
  std::uint32_t rounds = lower;
  while (flow_value_ < b_) {
    ++rounds;
    FLASHQOS_ASSERT(rounds <= b_, "b rounds always suffice");
    for (std::uint32_t d = 0; d < n_; ++d) {
      flow_value_ += mf_.raise_capacity_and_rerun(device_edges_[d], 1, source, sink);
      if (flow_value_ == b_) break;
    }
  }
  return rounds;
}

void FlowWorkspace::extract_schedule(std::span<const BucketId> batch,
                                     const decluster::AllocationScheme& scheme,
                                     Schedule& out) {
  FLASHQOS_EXPECT(flow_value_ == b_ && batch.size() == b_,
                  "extract_schedule() requires a feasible solve of this batch");
  out.assignments.assign(b_, Assignment{});
  next_round_.assign(n_, 0);
  for (std::uint32_t i = 0; i < b_; ++i) {
    const auto reps = scheme.replicas(batch[i]);
    for (std::size_t j = 0; j < reps.size(); ++j) {
      if (mf_.flow_on(replica_edges_[i * c_ + j]) > 0) {
        out.assignments[i].device = reps[j];
        out.assignments[i].round = next_round_[reps[j]]++;
        break;
      }
    }
    FLASHQOS_ASSERT(out.assignments[i].device != kInvalidDevice,
                    "saturated request must have a chosen replica");
  }
  out.rounds = *std::max_element(next_round_.begin(), next_round_.end());
}

void FlowWorkspace::extract_devices(std::span<const BucketId> batch,
                                    const decluster::AllocationScheme& scheme,
                                    std::vector<DeviceId>& out) {
  FLASHQOS_EXPECT(flow_value_ == b_ && batch.size() == b_,
                  "extract_devices() requires a feasible solve of this batch");
  out.assign(b_, kInvalidDevice);
  for (std::uint32_t i = 0; i < b_; ++i) {
    const auto reps = scheme.replicas(batch[i]);
    for (std::size_t j = 0; j < reps.size(); ++j) {
      if (mf_.flow_on(replica_edges_[i * c_ + j]) > 0) {
        out[i] = reps[j];
        break;
      }
    }
    FLASHQOS_ASSERT(out[i] != kInvalidDevice,
                    "saturated request must have a chosen replica");
  }
}

// ---------------------------------------------------------------------------
// Free-function solvers (workspace forms + value-returning wrappers)

bool feasible_in_rounds(std::span<const BucketId> batch,
                        const decluster::AllocationScheme& scheme,
                        std::uint32_t rounds, const std::vector<bool>& available,
                        FlowWorkspace& ws, Schedule& out) {
  if (batch.empty()) {
    out.assignments.clear();
    out.rounds = 0;
    out.via = SolvedBy::kDtr;
    return true;
  }
  if (!ws.solve(batch, scheme, rounds, available)) return false;
  ws.extract_schedule(batch, scheme, out);
  out.via = SolvedBy::kDtr;
  return true;
}

std::optional<Schedule> feasible_in_rounds(std::span<const BucketId> batch,
                                           const decluster::AllocationScheme& scheme,
                                           std::uint32_t rounds,
                                           const std::vector<bool>& available) {
  FlowWorkspace ws;
  Schedule out;
  if (!feasible_in_rounds(batch, scheme, rounds, available, ws, out)) {
    return std::nullopt;
  }
  return out;
}

std::optional<Schedule> feasible_in_rounds(std::span<const BucketId> batch,
                                           const decluster::AllocationScheme& scheme,
                                           std::uint32_t rounds) {
  return feasible_in_rounds(batch, scheme, rounds, {});
}

bool optimal_schedule(std::span<const BucketId> batch,
                      const decluster::AllocationScheme& scheme,
                      const std::vector<bool>& available, FlowWorkspace& ws,
                      Schedule& out) {
  if (batch.empty()) {
    out.assignments.clear();
    out.rounds = 0;
    out.via = SolvedBy::kDtr;
    return true;
  }
  // A request whose replicas are all down can never be scheduled.
  if (!available.empty()) {
    for (const auto bucket : batch) {
      const auto reps = scheme.replicas(bucket);
      if (std::none_of(reps.begin(), reps.end(),
                       [&](DeviceId d) { return available[d]; })) {
        return false;
      }
    }
  }
  // Feasibility search from the lower bound: build the network once, then
  // restore capacities in place per round step. Each re-solve starts from
  // the same zero-flow state a fresh build would, so the flows — and the
  // extracted schedule — are bit-identical to the historical
  // build-per-round implementation.
  auto m = static_cast<std::uint32_t>(
      design::optimal_accesses(batch.size(), scheme.devices()));
  bool ok = ws.solve(batch, scheme, m, available);
  while (!ok) {
    ++m;
    FLASHQOS_ASSERT(m <= batch.size(),
                    "b rounds always suffice; feasibility search ran away");
    ok = ws.resolve(m);
  }
  ws.extract_schedule(batch, scheme, out);
  out.via = SolvedBy::kMaxFlow;
  return true;
}

std::optional<Schedule> optimal_schedule(std::span<const BucketId> batch,
                                         const decluster::AllocationScheme& scheme,
                                         const std::vector<bool>& available) {
  FlowWorkspace ws;
  Schedule out;
  if (!optimal_schedule(batch, scheme, available, ws, out)) return std::nullopt;
  // Preserve the historical contract: an empty batch reports via == kDtr,
  // everything else via == kMaxFlow (set by the workspace form).
  return out;
}

Schedule optimal_schedule(std::span<const BucketId> batch,
                          const decluster::AllocationScheme& scheme) {
  auto s = optimal_schedule(batch, scheme, {});
  FLASHQOS_ASSERT(s.has_value(), "all-devices-up scheduling cannot fail");
  return std::move(*s);
}

void integrated_optimal_schedule(std::span<const BucketId> batch,
                                 const decluster::AllocationScheme& scheme,
                                 FlowWorkspace& ws, Schedule& out) {
  if (batch.empty()) {
    out.assignments.clear();
    out.rounds = 0;
    out.via = SolvedBy::kDtr;
    return;
  }
  ws.solve_integrated(batch, scheme);
  ws.extract_schedule(batch, scheme, out);
  out.via = SolvedBy::kDtr;
}

Schedule integrated_optimal_schedule(std::span<const BucketId> batch,
                                     const decluster::AllocationScheme& scheme) {
  FlowWorkspace ws;
  Schedule out;
  integrated_optimal_schedule(batch, scheme, ws, out);
  return out;
}

}  // namespace flashqos::retrieval
