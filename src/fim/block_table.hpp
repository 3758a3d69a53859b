// Open-addressed DataBlockId -> std::uint32_t table, and the LSD radix sort
// the FIM rollover sorts with.
//
// The miner counts item supports and then holds dense item ids in it; the
// block mapper holds its block -> bucket placements in it. Capacity is a
// power of two, probing is linear, and the table doubles before it passes
// half load, so its size follows the distinct keys only. clear() keeps the
// capacity, so a table rebuilt every reporting slice stops allocating once
// it has seen its largest slice.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace flashqos::fim {

class BlockTable {
 public:
  /// The value find() returns for an absent key; it marks empty slots, so
  /// no stored value may equal it.
  static constexpr std::uint32_t kAbsent = UINT32_MAX;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Remove every entry; the capacity stays.
  void clear() noexcept;

  /// Value stored for `key`, or kAbsent.
  [[nodiscard]] std::uint32_t find(DataBlockId key) const noexcept {
    if (size_ == 0) return kAbsent;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.value == kAbsent || s.key == key) return s.value;
    }
  }

  /// The value of `key`, first storing `value` (< kAbsent) if the key is
  /// absent. The reference is valid until the next insertion.
  std::uint32_t& try_emplace(DataBlockId key, std::uint32_t value);

  /// Call f(key, value&) for every entry, in slot order.
  template <typename F>
  void for_each(F&& f) {
    for (Slot& s : slots_) {
      if (s.value != kAbsent) f(s.key, s.value);
    }
  }

 private:
  struct Slot {
    DataBlockId key = 0;
    std::uint32_t value = kAbsent;
  };

  /// Fibonacci hashing: the top bits of key * 2^64/phi pick the home slot.
  [[nodiscard]] std::size_t home(DataBlockId key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  void grow();

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

/// Stable LSD radix sort of `keys` by the field at bits [low, high): keys
/// equal in that field keep their input order. `scratch` is a reusable
/// buffer.
void radix_sort(std::vector<std::uint64_t>& keys, std::vector<std::uint64_t>& scratch,
                unsigned low, unsigned high);

}  // namespace flashqos::fim
