#include "design/transversal.hpp"

#include "design/galois.hpp"
#include "util/expect.hpp"

namespace flashqos::design {

BlockDesign transversal_design(std::uint32_t k, std::uint32_t n) {
  FLASHQOS_EXPECT(is_prime(n), "transversal_design implemented for prime n");
  FLASHQOS_EXPECT(k >= 2 && k <= n + 1,
                  "TD(k, n) from MOLS needs 2 <= k <= n+1");
  std::vector<Block> blocks;
  blocks.reserve(static_cast<std::size_t>(n) * n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      Block b;
      b.reserve(k);
      b.push_back(i);          // rack 0
      if (k >= 2) b.push_back(n + j);  // rack 1
      for (std::uint32_t m = 1; m + 1 < k; ++m) {
        const auto cell = static_cast<std::uint32_t>(
            (static_cast<std::uint64_t>(m) * i + j) % n);
        b.push_back((m + 1) * n + cell);  // rack m+1 via the m-th Latin square
      }
      blocks.push_back(std::move(b));
    }
  }
  return BlockDesign(k * n, std::move(blocks),
                     "TD(" + std::to_string(k) + "," + std::to_string(n) + ")");
}

std::vector<std::uint32_t> rack_devices(std::uint32_t rack, std::uint32_t n) {
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (std::uint32_t v = 0; v < n; ++v) out.push_back(rack * n + v);
  return out;
}

}  // namespace flashqos::design
