// Optimal-retrieval probability sampling (paper §III-B1, Fig. 4).
//
// For a given allocation scheme, P_k is the probability that k buckets
// drawn uniformly *with replacement* (the paper: "the same design block is
// allowed to be chosen multiple times for fair results") can be retrieved
// in the optimal ⌈k/N⌉ accesses. The statistical admission controller
// uses the P_k table to accept batches beyond the deterministic limit S.
#pragma once

#include <cstdint>
#include <vector>

#include "decluster/allocation.hpp"

namespace flashqos::core {

struct SamplerParams {
  std::size_t samples_per_size = 5000;
  std::uint64_t seed = 7;
  /// Consult the process-wide P_k memo (below). The memo never changes
  /// results — a cached table is the stored output of the same
  /// deterministic computation — so this exists only for benchmarks and
  /// cache-behavior tests.
  bool cache = true;
};

/// P[k] for k = 0..max_k (P[0] = 1). Each P[k] estimated by Monte Carlo
/// with the exact max-flow optimality check, from its own RNG stream
/// (shard_seed(seed, k)), so P[k] does not depend on max_k.
///
/// Results are memoized process-wide, keyed by the scheme's full replica
/// table (not its name) plus (max_k, samples_per_size, seed) — the inputs
/// that determine the output bit for bit — so repeated replays of one
/// configuration sample once. A caller asking for a key that another
/// thread is computing waits for it and shares the table. Hit/miss counts
/// are exported as `retrieval.pk_cache.{hit,miss}` and audited by
/// `flashqos_verify --obs`.
[[nodiscard]] std::vector<double> sample_optimal_probabilities(
    const decluster::AllocationScheme& scheme, std::uint32_t max_k,
    const SamplerParams& params = {});

/// Degraded-mode P_k: only devices with available[d] == true may serve,
/// batches are drawn from the buckets that still have a live replica, and
/// "optimal" means ⌈k / live-devices⌉ accesses — the surviving sub-array's
/// optimum. An empty mask is exactly the healthy overload (same memo key),
/// so callers can pass their current availability unconditionally. The
/// adaptive statistical admission re-derives its Q from these tables when
/// devices go down.
[[nodiscard]] std::vector<double> sample_optimal_probabilities(
    const decluster::AllocationScheme& scheme, std::uint32_t max_k,
    const SamplerParams& params, const std::vector<bool>& available);

}  // namespace flashqos::core
