// Retrieval schedules: which replica serves each request, and in which
// parallel access round.
//
// A request batch is a multiset of bucket ids (the same bucket may be
// requested twice in an interval; the two requests are independent and may
// be served by different replicas). A schedule assigns every request a
// device (one of the bucket's replicas) and a round in [0, rounds); no two
// requests share a device within a round, so `rounds` equals the number of
// sequential accesses the slowest device performs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "decluster/allocation.hpp"
#include "util/types.hpp"

namespace flashqos::retrieval {

struct Assignment {
  DeviceId device = kInvalidDevice;
  std::uint32_t round = 0;
};

/// Which solver produced a schedule. Purely informational (observability:
/// the pipeline records whether the DTR fast path sufficed or the max-flow
/// fallback ran); never consulted by the scheduling logic itself.
enum class SolvedBy : std::uint8_t { kDtr = 0, kMaxFlow = 1 };

struct Schedule {
  std::vector<Assignment> assignments;  // parallel to the request batch
  std::uint32_t rounds = 0;
  SolvedBy via = SolvedBy::kDtr;

  [[nodiscard]] bool empty() const noexcept { return assignments.empty(); }
};

/// Verify a schedule against its batch: every request mapped to one of its
/// replicas, no device serves two requests in the same round, rounds field
/// is the true maximum. Used by tests and debug assertions.
[[nodiscard]] bool valid_schedule(std::span<const BucketId> batch,
                                  const decluster::AllocationScheme& scheme,
                                  const Schedule& schedule);

}  // namespace flashqos::retrieval
