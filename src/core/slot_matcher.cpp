#include "core/slot_matcher.hpp"

#include <algorithm>

namespace flashqos::core {

SlotMatcher::SlotMatcher(const decluster::AllocationScheme& scheme)
    : scheme_(scheme), devices_(scheme.devices()) {
  cap_epoch_.assign(devices_, 0);
  capacity_.assign(devices_, 0);
  occ_count_.assign(devices_, 0);
}

SlotMatcher::SlotMatcher(const decluster::AllocationScheme& scheme,
                         const std::vector<SimTime>& free_at, SimTime now,
                         SimTime service, std::uint32_t budget,
                         const std::vector<bool>& available,
                         const std::vector<SimTime>* per_device)
    : SlotMatcher(scheme) {
  begin_instant(free_at, now, service, budget, available, per_device);
}

void SlotMatcher::begin_instant(const std::vector<SimTime>& free_at,
                                SimTime now, SimTime service,
                                std::uint32_t budget,
                                const std::vector<bool>& available,
                                const std::vector<SimTime>* per_device) {
  free_at_ = &free_at;
  available_ = &available;
  per_device_ = per_device;
  now_ = now;
  service_ = service;
  budget_ = budget;
  window_end_ = now + static_cast<SimTime>(budget) * service;
  ++epoch_;
  const std::size_t need =
      static_cast<std::size_t>(devices_) * static_cast<std::size_t>(budget);
  if (occ_.size() < need) {
    // flashqos-lint: allow(hot-path-alloc): grows to devices x budget once, then stable
    occ_.resize(need);
  }
  buckets_.clear();
  assigned_.clear();
  visited_.clear();
}

void SlotMatcher::touch(DeviceId d) {
  if (cap_epoch_[d] == epoch_) return;
  cap_epoch_[d] = epoch_;
  occ_count_[d] = 0;
  std::uint32_t cap = 0;
  if (available_->empty() || (*available_)[d]) {  // down devices expose 0 slots
    const SimTime svc = per_device_ != nullptr ? (*per_device_)[d] : service_;
    const SimTime start = std::max((*free_at_)[d], now_);
    const SimTime room = window_end_ - start;
    cap = room <= 0 ? 0
                    : static_cast<std::uint32_t>(
                          std::min<SimTime>(room / svc, budget_));
  }
  capacity_[d] = cap;
}

bool SlotMatcher::saturated() {
  for (DeviceId d = 0; d < devices_; ++d) {
    touch(d);
    if (occ_count_[d] < capacity_[d]) return false;
  }
  return true;
}

bool SlotMatcher::add(BucketId bucket) {
  const std::size_t request = buckets_.size();
  // flashqos-lint: allow(hot-path-alloc): amortized growth, capacity persists across instants
  buckets_.push_back(bucket);
  // flashqos-lint: allow(hot-path-alloc): amortized growth, capacity persists across instants
  assigned_.push_back(kInvalidDevice);
  // flashqos-lint: allow(hot-path-alloc): amortized growth, capacity persists across instants
  visited_.push_back(0);
  ++add_stamp_;
  if (augment(request)) return true;
  buckets_.pop_back();
  assigned_.pop_back();
  visited_.pop_back();
  return false;
}

bool SlotMatcher::augment(std::size_t request) {
  visited_[request] = add_stamp_;
  const auto reps = scheme_.replicas(buckets_[request]);
  // First pass: a device with a free slot.
  for (const auto d : reps) {
    touch(d);
    if (occ_count_[d] < capacity_[d]) {
      occ_[static_cast<std::size_t>(d) * budget_ + occ_count_[d]] =
          static_cast<std::uint32_t>(request);
      ++occ_count_[d];
      assigned_[request] = d;
      return true;
    }
  }
  // Second pass: evict-and-relocate (augmenting path) over occupants in
  // insertion order — the same traversal the per-instant implementation
  // used, so assignments match it exactly.
  for (const auto d : reps) {
    const std::size_t base = static_cast<std::size_t>(d) * budget_;
    for (std::uint32_t j = 0; j < occ_count_[d]; ++j) {
      const std::size_t occupant = occ_[base + j];
      if (visited_[occupant] != add_stamp_ && augment(occupant)) {
        occ_[base + j] = static_cast<std::uint32_t>(request);
        assigned_[request] = d;
        return true;
      }
    }
  }
  return false;
}

}  // namespace flashqos::core
