// Finite fields GF(p^k) and their planes.
//
// The plane constructions in constructions.hpp cover prime orders; several
// useful array sizes need prime-*power* orders — PG(2,4) is a (21,5,1)
// design, PG(2,8) a (73,9,1), AG(2,9) an (81,9,1). This module implements
// GF(p^k) as polynomials over GF(p) modulo a fixed irreducible polynomial
// (found by exhaustive search at construction — fields here are tiny), and
// generalizes the plane constructions to any prime-power order.
#pragma once

#include <cstdint>
#include <vector>

#include "design/block_design.hpp"

namespace flashqos::design {

class GaloisField {
 public:
  /// GF(p^k) for prime p, k >= 1. Elements are labeled 0..p^k-1 with label
  /// digits = polynomial coefficients base p (label 0 is the zero element,
  /// label 1 the multiplicative identity).
  GaloisField(std::uint32_t p, std::uint32_t k);

  [[nodiscard]] std::uint32_t order() const noexcept { return order_; }

  [[nodiscard]] std::uint32_t add(std::uint32_t a, std::uint32_t b) const;
  [[nodiscard]] std::uint32_t sub(std::uint32_t a, std::uint32_t b) const;
  [[nodiscard]] std::uint32_t mul(std::uint32_t a, std::uint32_t b) const;
  [[nodiscard]] std::uint32_t neg(std::uint32_t a) const;
  /// Multiplicative inverse; a must be nonzero.
  [[nodiscard]] std::uint32_t inv(std::uint32_t a) const;

  /// The irreducible polynomial used, as coefficient labels low-to-high
  /// (degree k, monic).
  [[nodiscard]] const std::vector<std::uint32_t>& modulus() const noexcept {
    return modulus_;
  }

 private:
  [[nodiscard]] std::uint32_t mul_slow(std::uint32_t a, std::uint32_t b) const;

  std::uint32_t p_;
  std::uint32_t k_;
  std::uint32_t order_;
  std::vector<std::uint32_t> modulus_;
  std::vector<std::uint32_t> mul_table_;  // order x order
  std::vector<std::uint32_t> inv_table_;
};

/// True iff q is prime.
[[nodiscard]] bool is_prime(std::uint32_t q) noexcept;

/// True iff q is a prime power (the orders for which these fields and
/// planes exist).
[[nodiscard]] bool is_prime_power(std::uint32_t q);

/// Largest degree k GaloisField builds GF(p^k) for.
inline constexpr std::uint32_t kMaxFieldDegree = 6;

/// k for a prime power q = p^k; 0 if q is not a prime power.
[[nodiscard]] std::uint32_t field_degree(std::uint32_t q);

/// Affine plane AG(2, q) over GF(q) for any prime power q: a (q², q, 1)
/// design. Generalizes constructions.hpp's prime-only version.
[[nodiscard]] BlockDesign affine_plane_gf(std::uint32_t q);

/// Projective plane PG(2, q) over GF(q) for any prime power q: a
/// (q²+q+1, q+1, 1) design.
[[nodiscard]] BlockDesign projective_plane_gf(std::uint32_t q);

}  // namespace flashqos::design
