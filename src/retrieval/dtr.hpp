// Design-theoretic retrieval (DTR) — the paper's fast path (§III-C).
//
// Each request starts on the device holding its first copy; remapping
// passes then move requests off overloaded devices onto less-loaded
// replicas. DTR is O(b·c·passes) and, on design-theoretic allocations,
// almost always lands on the optimal round count; when it does not, the
// caller escalates to the max-flow solver (retrieve() below does both, in
// the order the paper prescribes: check DTR's result against ⌈b/N⌉, solve
// flow only when the fast path is off-optimal).
#pragma once

#include <optional>
#include <span>

#include "retrieval/schedule.hpp"
#include "retrieval/workspace.hpp"

namespace flashqos::retrieval {

/// The fast design-theoretic retrieval schedule (may be suboptimal).
[[nodiscard]] Schedule dtr_schedule(std::span<const BucketId> batch,
                                    const decluster::AllocationScheme& scheme);

/// Scratch-reusing form: the returned reference points into the scratch
/// and stays valid until its next use. Zero heap allocations once warm.
[[nodiscard]] const Schedule& dtr_schedule(std::span<const BucketId> batch,
                                           const decluster::AllocationScheme& scheme,
                                           RetrievalScratch& scratch);

/// The paper's combined retrieval: DTR first; if its round count exceeds
/// the optimum lower bound ⌈b/N⌉, solve max-flow for the true optimum.
/// The result is always a minimum-round schedule.
[[nodiscard]] Schedule retrieve(std::span<const BucketId> batch,
                                const decluster::AllocationScheme& scheme);

/// Scratch-reusing combined retrieval; same result, no allocations warm.
[[nodiscard]] const Schedule& retrieve(std::span<const BucketId> batch,
                                       const decluster::AllocationScheme& scheme,
                                       RetrievalScratch& scratch);

/// Degraded-mode combined retrieval: only devices with available[d] may
/// serve (empty mask = all up). nullopt iff some request has no live
/// replica — the caller decides between waiting for recovery and failing.
[[nodiscard]] std::optional<Schedule> retrieve(
    std::span<const BucketId> batch, const decluster::AllocationScheme& scheme,
    const std::vector<bool>& available);

/// Scratch-reusing degraded retrieval: nullptr iff some request has no
/// live replica; otherwise points into the scratch (valid until its next
/// use).
[[nodiscard]] const Schedule* retrieve(std::span<const BucketId> batch,
                                       const decluster::AllocationScheme& scheme,
                                       const std::vector<bool>& available,
                                       RetrievalScratch& scratch);

}  // namespace flashqos::retrieval
