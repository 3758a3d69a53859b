#include "retrieval/dtr.hpp"

#include <algorithm>
#include <numeric>

#include "design/block_design.hpp"
#include "obs/metrics.hpp"
#include "retrieval/maxflow.hpp"
#include "util/expect.hpp"

namespace flashqos::retrieval {
namespace {

/// Remapping sweeps before DTR stops looking for an improving move.
constexpr std::uint32_t kMaxPasses = 16;

/// Registry handles resolved once. Identity the verifier audits:
/// fast_path + max_flow_fallback == invocations (every retrieve() call
/// either returns the DTR schedule directly or invokes the exact solver).
/// Degraded retrievals bypass retrieve() proper and are counted apart.
struct RetrievalMetrics {
  obs::Counter& invocations;
  obs::Counter& fast_path;
  obs::Counter& max_flow_fallback;
  obs::Counter& degraded;
  obs::Counter& remap_moves;

  static RetrievalMetrics& get() {
    auto& reg = obs::MetricRegistry::global();
    static RetrievalMetrics m{reg.counter("retrieval.invocations"),
                              reg.counter("retrieval.fast_path"),
                              reg.counter("retrieval.max_flow_fallback"),
                              reg.counter("retrieval.degraded"),
                              reg.counter("retrieval.remap_moves")};
    return m;
  }
};

/// Pack per-device request lists into round numbers: the i-th request served
/// by a device runs in round i. `next_round` is caller-owned scratch.
void assign_rounds(Schedule& s, std::uint32_t devices,
                   std::vector<std::uint32_t>& next_round) {
  next_round.assign(devices, 0);
  std::uint32_t max_rounds = 0;
  for (auto& a : s.assignments) {
    a.round = next_round[a.device]++;
    max_rounds = std::max(max_rounds, a.round + 1);
  }
  s.rounds = s.assignments.empty() ? 0 : max_rounds;
}

}  // namespace

const Schedule& dtr_schedule(std::span<const BucketId> batch,
                             const decluster::AllocationScheme& scheme,
                             RetrievalScratch& scratch) {
  Schedule& s = scratch.dtr;
  s.via = SolvedBy::kDtr;
  s.rounds = 0;
  s.assignments.assign(batch.size(), Assignment{});
  if (batch.empty()) return s;

  const std::uint32_t n = scheme.devices();
  auto& load = scratch.load;
  load.assign(n, 0);

  // Initial mapping: every request starts on its primary copy.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const DeviceId primary = scheme.replicas(batch[i])[0];
    s.assignments[i].device = primary;
    ++load[primary];
  }

  // Remapping sweeps: pull requests off the currently most-loaded devices
  // onto replicas whose load is at least two lower (a move that cannot
  // increase the makespan and strictly reduces the mover's device load).
  std::uint64_t moves = 0;
  for (std::uint32_t pass = 0; pass < kMaxPasses; ++pass) {
    bool moved = false;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      auto& a = s.assignments[i];
      const auto reps = scheme.replicas(batch[i]);
      DeviceId best = a.device;
      for (const auto d : reps) {
        if (load[d] + 1 < load[a.device] && (best == a.device || load[d] < load[best])) {
          best = d;
        }
      }
      if (best != a.device) {
        --load[a.device];
        ++load[best];
        a.device = best;
        moved = true;
        ++moves;
      }
    }
    if (!moved) break;
  }
  if constexpr (obs::kEnabled) {
    if (moves > 0) RetrievalMetrics::get().remap_moves.inc(moves);
  }

  assign_rounds(s, n, scratch.rounds);
  FLASHQOS_ASSERT(valid_schedule(batch, scheme, s), "DTR produced invalid schedule");
  return s;
}

Schedule dtr_schedule(std::span<const BucketId> batch,
                      const decluster::AllocationScheme& scheme) {
  RetrievalScratch scratch;
  return dtr_schedule(batch, scheme, scratch);
}

const Schedule& retrieve(std::span<const BucketId> batch,
                         const decluster::AllocationScheme& scheme,
                         RetrievalScratch& scratch) {
  if constexpr (obs::kEnabled) RetrievalMetrics::get().invocations.inc();
  const Schedule& fast = dtr_schedule(batch, scheme, scratch);
  const auto lower = static_cast<std::uint32_t>(
      design::optimal_accesses(batch.size(), scheme.devices()));
  if (fast.rounds <= lower) {
    if constexpr (obs::kEnabled) RetrievalMetrics::get().fast_path.inc();
    return fast;
  }
  if constexpr (obs::kEnabled) RetrievalMetrics::get().max_flow_fallback.inc();
  [[maybe_unused]] const bool ok =
      optimal_schedule(batch, scheme, {}, scratch.flow, scratch.exact);
  FLASHQOS_ASSERT(ok, "all-devices-up scheduling cannot fail");
  // Max-flow is optimal by construction; DTR can only tie or lose.
  return scratch.exact.rounds < fast.rounds ? scratch.exact : fast;
}

Schedule retrieve(std::span<const BucketId> batch,
                  const decluster::AllocationScheme& scheme) {
  RetrievalScratch scratch;
  return retrieve(batch, scheme, scratch);
}

const Schedule* retrieve(std::span<const BucketId> batch,
                         const decluster::AllocationScheme& scheme,
                         const std::vector<bool>& available,
                         RetrievalScratch& scratch) {
  if (available.empty()) return &retrieve(batch, scheme, scratch);
  // Degraded mode goes straight to the exact solver: the DTR fast path's
  // primary-first heuristic has no meaning when the primary may be down,
  // and degraded batches are the rare case where latency of the scheduler
  // itself is not the bottleneck.
  if constexpr (obs::kEnabled) RetrievalMetrics::get().degraded.inc();
  if (!optimal_schedule(batch, scheme, available, scratch.flow, scratch.exact)) {
    return nullptr;
  }
  return &scratch.exact;
}

std::optional<Schedule> retrieve(std::span<const BucketId> batch,
                                 const decluster::AllocationScheme& scheme,
                                 const std::vector<bool>& available) {
  RetrievalScratch scratch;
  const Schedule* s = retrieve(batch, scheme, available, scratch);
  if (s == nullptr) return std::nullopt;
  return *s;
}

}  // namespace flashqos::retrieval
