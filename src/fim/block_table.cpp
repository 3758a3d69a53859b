#include "fim/block_table.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "util/expect.hpp"

namespace flashqos::fim {

void BlockTable::clear() noexcept {
  if (size_ == 0) return;
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
}

std::uint32_t& BlockTable::try_emplace(DataBlockId key, std::uint32_t value) {
  std::size_t i = 0;
  if (!slots_.empty()) {
    for (i = home(key); slots_[i].value != kAbsent; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return slots_[i].value;
    }
  }
  // Absent: grow first if this insertion would pass half load.
  if (2 * (size_ + 1) > slots_.size()) {
    grow();
    i = home(key);
    while (slots_[i].value != kAbsent) i = (i + 1) & mask_;
  }
  slots_[i] = Slot{key, value};
  ++size_;
  return slots_[i].value;
}

void BlockTable::grow() {
  const std::size_t capacity = std::max<std::size_t>(16, 2 * slots_.size());
  std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
  mask_ = capacity - 1;
  shift_ = 64U - static_cast<unsigned>(std::countr_zero(capacity));
  for (const Slot& s : old) {
    if (s.value == kAbsent) continue;
    std::size_t i = home(s.key);
    while (slots_[i].value != kAbsent) i = (i + 1) & mask_;
    slots_[i] = s;
  }
}

void radix_sort(std::vector<std::uint64_t>& keys, std::vector<std::uint64_t>& scratch,
                unsigned low, unsigned high) {
  // At most 11-bit digits: the 2048 counters stay in L1, and the digits
  // are spread evenly over the passes.
  constexpr unsigned kMaxDigit = 11;
  if (keys.size() < 2 || high <= low) return;
  FLASHQOS_EXPECT(keys.size() <= UINT32_MAX, "radix_sort counts in 32 bits");
  const unsigned passes = (high - low + kMaxDigit - 1) / kMaxDigit;
  const unsigned digit = (high - low + passes - 1) / passes;
  const std::uint64_t mask = (std::uint64_t{1} << digit) - 1;
  std::array<std::uint32_t, std::size_t{1} << kMaxDigit> count{};
  scratch.resize(keys.size());
  for (unsigned shift = low; shift < high; shift += digit) {
    std::fill(count.begin(), count.begin() + static_cast<std::ptrdiff_t>(mask + 1), 0);
    for (const auto k : keys) ++count[(k >> shift) & mask];
    std::uint32_t sum = 0;
    for (std::size_t d = 0; d <= mask; ++d) sum += std::exchange(count[d], sum);
    std::uint64_t* const out = scratch.data();
    for (const auto k : keys) out[count[(k >> shift) & mask]++] = k;
    keys.swap(scratch);
  }
}

}  // namespace flashqos::fim
