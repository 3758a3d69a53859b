// Streaming ≡ in-memory replay oracle.
//
// QosPipeline::run_stream promises the same numbers as run() on the
// materialized trace — interval reports, the overall report, deadline
// violations, tenant usage, every registry metric, and every windowed
// time-series point — at any batch size and through any cursor (vector
// adapter, generator, chunked file reader). This verifier enforces that
// promise the way the rest of src/verify works: recompute both sides and
// compare field by field with exact (bitwise for doubles) equality, plus
// absolute registry/time-series snapshot identity modulo the instruments
// that legitimately differ (wall-clock stage timings, byte/batch
// accounting that depends on how the stream was chunked).
// run() is itself run_stream over a VectorCursor at the default batch
// size, so what this audits is independence of batch size and cursor
// kind.
//
// The oracle also proves it can fail: StreamOptions::misdrain_for_test
// deliberately breaks the engine's read-ahead drain bound, and the run
// only passes if that seeded defect produces a detected divergence.
#pragma once

#include <cstdint>

#include "verify/invariants.hpp"

namespace flashqos::verify {

struct StreamCheckParams {
  double trace_scale = 0.02;  // Exchange-style trace scale (keep small)
  std::uint64_t seed = 2026;
  /// Monte-Carlo effort for the statistical-admission P_k table.
  std::size_t p_samples = 200;
};

/// Run the streaming identity audit on `scheme`: representative pipeline
/// configs (online/aligned, deterministic/statistical/none admission,
/// FIM/modulo mapping, multi-tenant WFQ, fault windows) × batch sizes
/// {1, 7, 4096} × {vector cursor, generator cursor, chunked disksim
/// reader}, each leg compared bit-exactly against run() on the
/// materialized trace, with registry and time-series snapshots compared
/// instrument by instrument. One check per leg; all must pass.
[[nodiscard]] Report verify_streaming(const decluster::AllocationScheme& scheme,
                                      const StreamCheckParams& params = {});

}  // namespace flashqos::verify
