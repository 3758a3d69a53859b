#include "design/constructions.hpp"

#include <array>

#include "design/galois.hpp"
#include "util/expect.hpp"

namespace flashqos::design {

BlockDesign make_9_3_1() {
  // Exactly the paper's Figure 2 columns, left to right.
  std::vector<Block> blocks = {
      {0, 1, 2}, {0, 3, 6}, {0, 4, 8}, {0, 5, 7}, {1, 3, 8}, {1, 4, 7},
      {1, 5, 6}, {2, 3, 7}, {2, 4, 6}, {2, 5, 8}, {3, 4, 5}, {6, 7, 8},
  };
  return BlockDesign(9, std::move(blocks), "(9,3,1)");
}

BlockDesign make_13_3_1() {
  return cyclic_design(13, {{0, 1, 4}, {0, 2, 7}}, "(13,3,1)");
}

BlockDesign fano() { return cyclic_design(7, {{0, 1, 3}}, "(7,3,1)"); }

BlockDesign cyclic_design(std::uint32_t v, const std::vector<Block>& base_blocks,
                          std::string name) {
  FLASHQOS_EXPECT(v >= 3, "cyclic design needs at least 3 points");
  std::vector<Block> blocks;
  blocks.reserve(base_blocks.size() * v);
  for (const auto& base : base_blocks) {
    for (std::uint32_t shift = 0; shift < v; ++shift) {
      Block b;
      b.reserve(base.size());
      for (const auto p : base) b.push_back((p + shift) % v);
      blocks.push_back(std::move(b));
    }
  }
  if (name.empty()) {
    name = "cyclic(" + std::to_string(v) + "," +
           std::to_string(base_blocks.front().size()) + ",1)";
  }
  return BlockDesign(v, std::move(blocks), std::move(name));
}

BlockDesign bose_sts(std::uint32_t v) {
  FLASHQOS_EXPECT(v % 6 == 3 && v >= 9, "Bose construction needs v = 6t+3, v >= 9");
  const std::uint32_t n = v / 3;  // odd
  const std::uint32_t inv2 = (n + 1) / 2;  // multiplicative inverse of 2 mod n
  // Point (i, k) with i in Z_n, k in {0,1,2} encodes as k*n + i.
  const auto pt = [n](std::uint32_t i, std::uint32_t k) { return k * n + i; };

  std::vector<Block> blocks;
  blocks.reserve(static_cast<std::size_t>(v) * (v - 1) / 6);
  for (std::uint32_t i = 0; i < n; ++i) {
    blocks.push_back({pt(i, 0), pt(i, 1), pt(i, 2)});
  }
  for (std::uint32_t k = 0; k < 3; ++k) {
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = i + 1; j < n; ++j) {
        const std::uint32_t mid = static_cast<std::uint32_t>(
            (static_cast<std::uint64_t>(i + j) * inv2) % n);
        blocks.push_back({pt(i, k), pt(j, k), pt(mid, (k + 1) % 3)});
      }
    }
  }
  return BlockDesign(v, std::move(blocks),
                     "bose(" + std::to_string(v) + ",3,1)");
}

BlockDesign skolem_sts(std::uint32_t v) {
  FLASHQOS_EXPECT(v % 6 == 1 && v >= 7, "Skolem construction needs v = 6n+1, v >= 7");
  const std::uint32_t n = v / 6;
  const std::uint32_t q = 2 * n;  // quasigroup order
  // Half-idempotent commutative quasigroup on Z_2n: i∘j = f((i+j) mod 2n)
  // where f halves evens and sends odd x to n + (x-1)/2. f is a bijection,
  // so ∘ is a commutative quasigroup with i∘i = i for i < n.
  const auto circ = [n, q](std::uint32_t i, std::uint32_t j) {
    const std::uint32_t x = (i + j) % q;
    return (x % 2 == 0) ? x / 2 : n + (x - 1) / 2;
  };
  // Point (i, k) with i in Z_2n, k in {0,1,2} encodes as k*2n + i; the
  // "infinity" point is 6n (the last point).
  const auto pt = [q](std::uint32_t i, std::uint32_t k) { return k * q + i; };
  const std::uint32_t infinity = 6 * n;

  std::vector<Block> blocks;
  blocks.reserve(static_cast<std::size_t>(v) * (v - 1) / 6);
  for (std::uint32_t i = 0; i < n; ++i) {
    blocks.push_back({pt(i, 0), pt(i, 1), pt(i, 2)});
  }
  for (std::uint32_t k = 0; k < 3; ++k) {
    for (std::uint32_t i = 0; i < n; ++i) {
      blocks.push_back({infinity, pt(n + i, k), pt(i, (k + 1) % 3)});
    }
  }
  for (std::uint32_t k = 0; k < 3; ++k) {
    for (std::uint32_t i = 0; i < q; ++i) {
      for (std::uint32_t j = i + 1; j < q; ++j) {
        blocks.push_back({pt(i, k), pt(j, k), pt(circ(i, j), (k + 1) % 3)});
      }
    }
  }
  return BlockDesign(v, std::move(blocks),
                     "skolem(" + std::to_string(v) + ",3,1)");
}

BlockDesign sts(std::uint32_t v) {
  FLASHQOS_EXPECT(sts_exists(v) && v >= 7,
                  "Steiner triple systems exist only for v = 1,3 (mod 6)");
  if (v == 9) return make_9_3_1();
  if (v == 13) return make_13_3_1();
  if (v == 7) return fano();
  return (v % 6 == 3) ? bose_sts(v) : skolem_sts(v);
}

BlockDesign affine_plane(std::uint32_t q) {
  FLASHQOS_EXPECT(is_prime(q), "affine_plane implemented for prime orders only");
  // Points (x, y) in GF(q)^2 encode as x*q + y. Lines: y = m·x + b for each
  // slope m and intercept b, plus the q vertical lines x = c.
  std::vector<Block> blocks;
  blocks.reserve(static_cast<std::size_t>(q) * (q + 1));
  for (std::uint32_t m = 0; m < q; ++m) {
    for (std::uint32_t b = 0; b < q; ++b) {
      Block line;
      line.reserve(q);
      for (std::uint32_t x = 0; x < q; ++x) {
        const std::uint32_t y = static_cast<std::uint32_t>(
            (static_cast<std::uint64_t>(m) * x + b) % q);
        line.push_back(x * q + y);
      }
      blocks.push_back(std::move(line));
    }
  }
  for (std::uint32_t c = 0; c < q; ++c) {
    Block line;
    line.reserve(q);
    for (std::uint32_t y = 0; y < q; ++y) line.push_back(c * q + y);
    blocks.push_back(std::move(line));
  }
  return BlockDesign(q * q, std::move(blocks),
                     "AG(2," + std::to_string(q) + ")");
}

BlockDesign projective_plane(std::uint32_t q) {
  FLASHQOS_EXPECT(is_prime(q), "projective_plane implemented for prime orders only");
  // Points of PG(2,q): 1-dim subspaces of GF(q)^3, represented by their
  // normalized homogeneous coordinates (first nonzero coordinate == 1):
  //   (1, y, z)  -> id y*q + z              [q^2 points]
  //   (0, 1, z)  -> id q^2 + z              [q points]
  //   (0, 0, 1)  -> id q^2 + q              [1 point]
  const std::uint32_t n_points = q * q + q + 1;
  const auto point_id = [q](std::uint32_t x, std::uint32_t y,
                            std::uint32_t z) -> std::uint32_t {
    if (x != 0) return y * q + z;  // (1, y, z)
    if (y != 0) return q * q + z;  // (0, 1, z)
    return q * q + q;              // (0, 0, 1)
  };

  // Lines are dual: for each normalized [a,b,c], the line is the set of
  // points (x,y,z) with a·x + b·y + c·z == 0 (mod q).
  std::vector<Block> blocks;
  blocks.reserve(n_points);
  std::vector<std::array<std::uint32_t, 3>> line_coeffs;
  for (std::uint32_t b = 0; b < q; ++b) {
    for (std::uint32_t c = 0; c < q; ++c) line_coeffs.push_back({1, b, c});
  }
  for (std::uint32_t c = 0; c < q; ++c) line_coeffs.push_back({0, 1, c});
  line_coeffs.push_back({0, 0, 1});

  for (const auto& [a, b, c] : line_coeffs) {
    Block line;
    line.reserve(q + 1);
    // Enumerate all normalized points and keep the incident ones.
    const auto incident = [&](std::uint32_t x, std::uint32_t y, std::uint32_t z) {
      return (static_cast<std::uint64_t>(a) * x + static_cast<std::uint64_t>(b) * y +
              static_cast<std::uint64_t>(c) * z) %
                 q ==
             0;
    };
    for (std::uint32_t y = 0; y < q; ++y) {
      for (std::uint32_t z = 0; z < q; ++z) {
        if (incident(1, y, z)) line.push_back(point_id(1, y, z));
      }
    }
    for (std::uint32_t z = 0; z < q; ++z) {
      if (incident(0, 1, z)) line.push_back(point_id(0, 1, z));
    }
    if (incident(0, 0, 1)) line.push_back(point_id(0, 0, 1));
    FLASHQOS_ASSERT(line.size() == q + 1, "projective line must have q+1 points");
    blocks.push_back(std::move(line));
  }
  return BlockDesign(n_points, std::move(blocks),
                     "PG(2," + std::to_string(q) + ")");
}

}  // namespace flashqos::design
