// Serial ≡ sharded-sweep replay oracle.
//
// The sharded sweep (ParallelReplayEngine::run_jobs) promises results
// bit-identical to the serial QosPipeline — same per-request outcomes,
// same per-interval metrics, same deadline-violation count — for every
// mode combination, under failure windows, and for mixed-mode job lists.
// This verifier enforces that promise the way the rest of src/verify
// works: recompute both sides and compare field by field with exact
// (bitwise for doubles) equality, so any accumulation-order drift or shard
// cross-talk in a future refactor turns into a named failing check rather
// than a silently shifted figure. Each serial replay's device ops are also
// re-simulated (verify/resim_oracle.hpp), one check per config.
#pragma once

#include <cstdint>

#include "verify/invariants.hpp"

namespace flashqos::verify {

struct ReplayEquivalenceParams {
  std::size_t threads = 4;      // sweep pool width under test
  double trace_scale = 0.02;    // Exchange-style trace scale (keep small)
  std::uint64_t seed = 2012;
  /// Monte-Carlo effort for the statistical-admission P_k table.
  std::size_t p_samples = 200;
};

/// Run serial vs run_jobs over every {retrieval × admission × mapping ×
/// scheduler} combination on a synthetic trace and an Exchange-style
/// trace, plus failure-window scenarios and a mixed-mode sweep batch.
/// One check per combination; all must pass for the report to pass.
[[nodiscard]] Report verify_replay_equivalence(
    const decluster::AllocationScheme& scheme,
    const ReplayEquivalenceParams& params = {});

}  // namespace flashqos::verify
