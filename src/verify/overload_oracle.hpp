// Sustained-overload oracle.
//
// Over budget, admission defers reads to later QoS intervals, and the
// engine must keep that linear: a deferred read waits in the carry-over
// FIFO and is offered to admission again only when the interval's budget
// can still take it. This verifier drives sustained 1.2x, 2x and 4x S
// streams — arrivals on the boundaries or spread inside the intervals,
// with and without an idle phase that lets the backlog drain — through
// every admission x retrieval mode, the primary-only scheduler and the
// multi-tenant front end, in process and through PipelineService's live
// session, and checks deterministic invariants instead of timings:
//
//  * admission work: pipeline.admission_offers per request stays <= 2 at
//    N and at 2N (quadratic re-offering would grow with the backlog);
//  * conservation: served + shed + failed = submitted;
//  * the guarantee: zero deadline misses under online deterministic.
//
// It also proves it can fail: StreamOptions::rescan_for_test offers every
// carried read at every boundary. The outcomes must stay identical (the
// stop rules only skip reads admission would refuse), and the offers
// bound must trip.
#pragma once

#include <cstdint>

#include "decluster/allocation.hpp"
#include "verify/invariants.hpp"

namespace flashqos::verify {

struct OverloadCheckParams {
  std::size_t intervals = 256;       // N: ON intervals of the short stream
  double max_offers_per_request = 2.0;
  std::uint64_t seed = 12;
  std::size_t p_samples = 200;       // statistical P_k table effort
};

[[nodiscard]] Report verify_overload(const decluster::AllocationScheme& scheme,
                                     const OverloadCheckParams& params = {});

}  // namespace flashqos::verify
