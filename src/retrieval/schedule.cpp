#include "retrieval/schedule.hpp"

#include <algorithm>
#include <unordered_set>

namespace flashqos::retrieval {

bool valid_schedule(std::span<const BucketId> batch,
                    const decluster::AllocationScheme& scheme,
                    const Schedule& schedule) {
  if (schedule.assignments.size() != batch.size()) return false;
  std::unordered_set<std::uint64_t> slot_used;  // (device, round) occupancy
  std::uint32_t max_round = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& a = schedule.assignments[i];
    const auto reps = scheme.replicas(batch[i]);
    if (std::find(reps.begin(), reps.end(), a.device) == reps.end()) return false;
    const std::uint64_t slot =
        (static_cast<std::uint64_t>(a.device) << 32) | a.round;
    // flashqos-lint: allow(hot-path-alloc): schedule validator, not the fast path
    if (!slot_used.insert(slot).second) return false;
    max_round = std::max(max_round, a.round + 1);
  }
  return batch.empty() ? schedule.rounds == 0 : schedule.rounds == max_round;
}

}  // namespace flashqos::retrieval
