#include "retrieval/online.hpp"

#include <algorithm>

namespace flashqos::retrieval {

OnlineRetriever::OnlineRetriever(const decluster::AllocationScheme& scheme,
                                 SimTime service_time)
    : scheme_(scheme), service_time_(service_time), free_at_(scheme.devices(), 0) {
  FLASHQOS_EXPECT(service_time > 0, "service time must be positive");
}

Decision OnlineRetriever::submit(BucketId bucket, SimTime arrival) {
  const auto reps = scheme_.replicas(bucket);
  DeviceId pick = reps[0];
  SimTime best_start = std::max(arrival, free_at_[pick]);
  for (std::size_t i = 1; i < reps.size(); ++i) {
    const SimTime start = std::max(arrival, free_at_[reps[i]]);
    if (start < best_start) {
      pick = reps[i];
      best_start = start;
    }
  }
  const Decision d{pick, best_start, best_start + service_time_};
  free_at_[pick] = d.finish;
  return d;
}

std::vector<Decision> OnlineRetriever::submit_batch(std::span<const BucketId> batch,
                                                    SimTime arrival) {
  std::vector<Decision> out(batch.size());
  if (batch.empty()) return out;
  if (batch.size() == 1) {
    out[0] = submit(batch[0], arrival);
    return out;
  }
  const Schedule& s = retrieve(batch, scheme_, scratch_);
  // Per-device dispatch: requests on one device run back to back in round
  // order, starting when the device frees up (or at arrival).
  auto& device_cursor = device_cursor_;
  device_cursor.assign(free_at_.size(), -1);
  // Process in round order so earlier rounds get earlier slots.
  auto& order = order_;
  order.resize(batch.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return s.assignments[a].round < s.assignments[b].round;
  });
  for (const auto i : order) {
    const DeviceId dev = s.assignments[i].device;
    SimTime& cursor = device_cursor[dev];
    if (cursor < 0) cursor = std::max(arrival, free_at_[dev]);
    out[i] = Decision{dev, cursor, cursor + service_time_};
    cursor = out[i].finish;
  }
  for (std::size_t d = 0; d < free_at_.size(); ++d) {
    if (device_cursor[d] >= 0) free_at_[d] = device_cursor[d];
  }
  return out;
}

SimTime OnlineRetriever::horizon() const noexcept {
  return *std::max_element(free_at_.begin(), free_at_.end());
}

void OnlineRetriever::reset() noexcept {
  std::fill(free_at_.begin(), free_at_.end(), SimTime{0});
}

}  // namespace flashqos::retrieval
