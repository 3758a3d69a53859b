// Incremental bipartite matching of requests onto replica-device slots.
//
// The deterministic online admission rule is "admit only what can start
// inside the access budget right now": device d exposes
//   slots(d) = how many service quanta fit in [max(free, now), now + M·L]
// and a request is admissible iff an augmenting path assigns it (possibly
// remapping earlier admissions — the paper's "necessary remappings are
// performed" for same-instant batches).
//
// This is the replay loop's hottest structure, so one instance persists
// across the whole replay and begin_instant() re-arms it in O(1):
//  * per-device capacity is epoch-stamped and computed lazily on first
//    touch, so an instant only pays for devices its buckets replicate to
//    (O(c) per request, not O(devices) per instant);
//  * occupants live in one flat array with stride = budget (no per-device
//    vectors, no per-instant allocation once warm);
//  * the device of each admitted request is maintained during augmenting
//    (assigned_), so reading the assignment is O(1) per request instead of
//    materializing a vector per instant.
// The augmenting traversal order — free slot in replica order first, then
// evict-and-relocate over occupants in insertion order — is exactly the
// order the original per-instant implementation used, so admissions and
// device assignments are bit-identical.
#pragma once

#include <cstdint>
#include <vector>

#include "decluster/allocation.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace flashqos::core {

class SlotMatcher {
 public:
  /// Persistent form: construct once, begin_instant() per same-instant
  /// batch.
  explicit SlotMatcher(const decluster::AllocationScheme& scheme);

  /// One-shot form (constructs and arms for a single instant) — the
  /// original per-instant interface, kept for call sites that match once.
  SlotMatcher(const decluster::AllocationScheme& scheme,
              const std::vector<SimTime>& free_at, SimTime now, SimTime service,
              std::uint32_t budget, const std::vector<bool>& available,
              const std::vector<SimTime>* per_device = nullptr);

  /// Re-arm for a new instant. `service` is the base quantum L defining the
  /// guarantee window [now, now + M·L]. `per_device` (optional) gives each
  /// device's *effective* quantum — stretched by a latency-spike window —
  /// so a degraded device exposes fewer slots inside the same window and
  /// the admission rule stays honest about what can actually finish in
  /// time. The references must stay valid until the next begin_instant().
  void begin_instant(const std::vector<SimTime>& free_at, SimTime now,
                     SimTime service, std::uint32_t budget,
                     const std::vector<bool>& available,
                     const std::vector<SimTime>* per_device = nullptr);

  /// Try to admit one more request for `bucket`; true on success. On
  /// success the internal assignment covers every admitted request.
  [[nodiscard]] bool add(BucketId bucket);

  /// No device has a free slot left this instant. Every augmenting path
  /// ends at a free slot, so from here on add() refuses every bucket.
  /// O(devices).
  [[nodiscard]] bool saturated();

  /// Admitted requests so far this instant.
  [[nodiscard]] std::size_t admitted() const noexcept {
    return buckets_.size();
  }

  /// Device of admitted request `r` (admission order), O(1).
  [[nodiscard]] DeviceId device_of(std::size_t r) const noexcept {
    return assigned_[r];
  }

  /// Device of each admitted request, in admission order.
  [[nodiscard]] std::vector<DeviceId> assignment() const { return assigned_; }

 private:
  /// Lazily compute `d`'s slot capacity for the current instant.
  void touch(DeviceId d);
  [[nodiscard]] bool augment(std::size_t request);

  const decluster::AllocationScheme& scheme_;
  std::uint32_t devices_;

  // Instant parameters (borrowed; see begin_instant).
  const std::vector<SimTime>* free_at_ = nullptr;
  const std::vector<bool>* available_ = nullptr;
  const std::vector<SimTime>* per_device_ = nullptr;
  SimTime now_ = 0;
  SimTime service_ = 0;
  SimTime window_end_ = 0;
  std::uint32_t budget_ = 0;

  // Epoch-stamped per-device state: valid iff cap_epoch_[d] == epoch_.
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> cap_epoch_;
  std::vector<std::uint32_t> capacity_;
  std::vector<std::uint32_t> occ_count_;
  std::vector<std::uint32_t> occ_;  // flat occupants, stride = budget_

  // Per-request state for the current instant.
  std::vector<BucketId> buckets_;
  std::vector<DeviceId> assigned_;
  std::vector<std::uint64_t> visited_;  // stamp == add_stamp_ means visited
  std::uint64_t add_stamp_ = 0;
};

}  // namespace flashqos::core
