#include "design/galois.hpp"

#include <algorithm>
#include <array>

#include "util/expect.hpp"

namespace flashqos::design {
namespace {

/// Digits of `label` base p, low-to-high, padded to `len`.
std::vector<std::uint32_t> digits(std::uint32_t label, std::uint32_t p,
                                  std::uint32_t len) {
  std::vector<std::uint32_t> d(len, 0);
  for (std::uint32_t i = 0; i < len && label != 0; ++i) {
    d[i] = label % p;
    label /= p;
  }
  return d;
}

std::uint32_t label_of(const std::vector<std::uint32_t>& d, std::uint32_t p) {
  std::uint32_t label = 0;
  for (std::size_t i = d.size(); i-- > 0;) label = label * p + d[i];
  return label;
}

/// Polynomial multiplication over GF(p), reduced modulo `mod` (monic,
/// degree k). Operands as digit vectors of length k.
std::vector<std::uint32_t> polymul_mod(const std::vector<std::uint32_t>& a,
                                       const std::vector<std::uint32_t>& b,
                                       const std::vector<std::uint32_t>& mod,
                                       std::uint32_t p) {
  const std::uint32_t k = static_cast<std::uint32_t>(mod.size()) - 1;
  std::vector<std::uint32_t> prod(2 * k, 0);
  for (std::uint32_t i = 0; i < k; ++i) {
    if (a[i] == 0) continue;
    for (std::uint32_t j = 0; j < k; ++j) {
      prod[i + j] = (prod[i + j] + a[i] * b[j]) % p;
    }
  }
  // Reduce: for each high coefficient, subtract coeff * x^(d-k) * mod.
  for (std::uint32_t d = 2 * k - 1; d >= k; --d) {
    const std::uint32_t c = prod[d];
    if (c == 0) continue;
    prod[d] = 0;
    const std::uint32_t shift = d - k;
    for (std::uint32_t j = 0; j <= k; ++j) {
      // mod is monic: mod[k] == 1.
      prod[shift + j] = (prod[shift + j] + p * p - c * mod[j] % p) % p;
    }
  }
  prod.resize(k);
  return prod;
}

/// Does `mod` (monic, degree k, coefficients base p) have a root-free,
/// factor-free structure? Exhaustive: irreducible iff no monic divisor of
/// degree 1..k/2 divides it. For the tiny fields here, test by trial
/// division over all monic polynomials of degree <= k/2.
bool is_irreducible(const std::vector<std::uint32_t>& mod, std::uint32_t p) {
  const std::uint32_t k = static_cast<std::uint32_t>(mod.size()) - 1;
  for (std::uint32_t deg = 1; deg <= k / 2; ++deg) {
    // All monic polynomials of degree `deg`: label enumerates the low
    // coefficients.
    std::uint32_t count = 1;
    for (std::uint32_t i = 0; i < deg; ++i) count *= p;
    for (std::uint32_t label = 0; label < count; ++label) {
      std::vector<std::uint32_t> divisor = digits(label, p, deg + 1);
      divisor[deg] = 1;
      // Polynomial remainder of mod / divisor.
      std::vector<std::uint32_t> rem = mod;
      for (std::uint32_t d = k; d >= deg; --d) {
        const std::uint32_t c = rem[d];
        if (c != 0) {
          rem[d] = 0;
          for (std::uint32_t j = 0; j < deg; ++j) {
            rem[d - deg + j] = (rem[d - deg + j] + p * p - c * divisor[j] % p) % p;
          }
        }
        if (d == 0) break;
      }
      if (std::all_of(rem.begin(), rem.end(),
                      [](std::uint32_t x) { return x == 0; })) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

GaloisField::GaloisField(std::uint32_t p, std::uint32_t k) : p_(p), k_(k) {
  FLASHQOS_EXPECT(is_prime(p), "field characteristic must be prime");
  FLASHQOS_EXPECT(k >= 1 && k <= kMaxFieldDegree, "supported field degrees: 1..6");
  order_ = 1;
  for (std::uint32_t i = 0; i < k; ++i) {
    FLASHQOS_EXPECT(order_ < UINT32_MAX / p, "field order overflow");
    order_ *= p;
  }

  // Find a monic irreducible polynomial of degree k over GF(p).
  modulus_.assign(k + 1, 0);
  modulus_[k] = 1;
  if (k == 1) {
    // GF(p): modulus x (arithmetic is plain mod p).
  } else {
    bool found = false;
    for (std::uint32_t label = 1; label < order_ && !found; ++label) {
      auto low = digits(label, p, k);
      std::vector<std::uint32_t> cand(k + 1, 0);
      std::copy(low.begin(), low.end(), cand.begin());
      cand[k] = 1;
      if (cand[0] == 0) continue;  // divisible by x
      if (is_irreducible(cand, p)) {
        modulus_ = cand;
        found = true;
      }
    }
    FLASHQOS_ASSERT(found, "an irreducible polynomial always exists");
  }

  // Precompute multiplication and inverse tables.
  mul_table_.assign(static_cast<std::size_t>(order_) * order_, 0);
  inv_table_.assign(order_, 0);
  for (std::uint32_t a = 0; a < order_; ++a) {
    for (std::uint32_t b = a; b < order_; ++b) {
      const std::uint32_t m = mul_slow(a, b);
      mul_table_[static_cast<std::size_t>(a) * order_ + b] = m;
      mul_table_[static_cast<std::size_t>(b) * order_ + a] = m;
      if (m == 1) {
        inv_table_[a] = b;
        inv_table_[b] = a;
      }
    }
  }
}

std::uint32_t GaloisField::mul_slow(std::uint32_t a, std::uint32_t b) const {
  if (k_ == 1) return static_cast<std::uint32_t>((std::uint64_t{a} * b) % p_);
  const auto da = digits(a, p_, k_);
  const auto db = digits(b, p_, k_);
  return label_of(polymul_mod(da, db, modulus_, p_), p_);
}

std::uint32_t GaloisField::add(std::uint32_t a, std::uint32_t b) const {
  FLASHQOS_EXPECT(a < order_ && b < order_, "element out of field");
  if (k_ == 1) return (a + b) % p_;
  auto da = digits(a, p_, k_);
  const auto db = digits(b, p_, k_);
  for (std::uint32_t i = 0; i < k_; ++i) da[i] = (da[i] + db[i]) % p_;
  return label_of(da, p_);
}

std::uint32_t GaloisField::neg(std::uint32_t a) const {
  FLASHQOS_EXPECT(a < order_, "element out of field");
  if (k_ == 1) return (p_ - a) % p_;
  auto da = digits(a, p_, k_);
  for (std::uint32_t i = 0; i < k_; ++i) da[i] = (p_ - da[i]) % p_;
  return label_of(da, p_);
}

std::uint32_t GaloisField::sub(std::uint32_t a, std::uint32_t b) const {
  return add(a, neg(b));
}

std::uint32_t GaloisField::mul(std::uint32_t a, std::uint32_t b) const {
  FLASHQOS_EXPECT(a < order_ && b < order_, "element out of field");
  return mul_table_[static_cast<std::size_t>(a) * order_ + b];
}

std::uint32_t GaloisField::inv(std::uint32_t a) const {
  FLASHQOS_EXPECT(a > 0 && a < order_, "inverse of zero or out-of-field element");
  return inv_table_[a];
}

bool is_prime(std::uint32_t q) noexcept {
  if (q < 2) return false;
  for (std::uint32_t d = 2; d * d <= q; ++d) {
    if (q % d == 0) return false;
  }
  return true;
}

bool is_prime_power(std::uint32_t q) { return field_degree(q) != 0; }

std::uint32_t field_degree(std::uint32_t q) {
  if (q < 2) return 0;
  // Smallest prime factor must exhaust q.
  std::uint32_t p = 2;
  while (q % p != 0) ++p;
  std::uint32_t k = 0;
  for (; q % p == 0; q /= p) ++k;
  return q == 1 ? k : 0;
}

BlockDesign affine_plane_gf(std::uint32_t q) {
  FLASHQOS_EXPECT(is_prime_power(q), "affine plane orders are prime powers");
  // Factor q = p^k.
  std::uint32_t p = 2;
  while (q % p != 0) ++p;
  std::uint32_t k = 0;
  for (std::uint32_t x = q; x > 1; x /= p) ++k;
  const GaloisField f(p, k);

  std::vector<Block> blocks;
  blocks.reserve(static_cast<std::size_t>(q) * (q + 1));
  for (std::uint32_t m = 0; m < q; ++m) {
    for (std::uint32_t b = 0; b < q; ++b) {
      Block line;
      line.reserve(q);
      for (std::uint32_t x = 0; x < q; ++x) {
        line.push_back(x * q + f.add(f.mul(m, x), b));
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

BlockDesign projective_plane_gf(std::uint32_t q) {
  FLASHQOS_EXPECT(is_prime_power(q), "projective plane orders are prime powers");
  std::uint32_t p = 2;
  while (q % p != 0) ++p;
  std::uint32_t k = 0;
  for (std::uint32_t x = q; x > 1; x /= p) ++k;
  const GaloisField f(p, k);

  // Normalized points: (1,y,z), (0,1,z), (0,0,1); same layout as the
  // prime-order construction but with GF(q) arithmetic.
  const std::uint32_t n_points = q * q + q + 1;
  const auto point_id = [q](std::uint32_t x, std::uint32_t y,
                            std::uint32_t z) -> std::uint32_t {
    if (x != 0) return y * q + z;
    if (y != 0) return q * q + z;
    return q * q + q;
  };
  std::vector<std::array<std::uint32_t, 3>> line_coeffs;
  for (std::uint32_t b = 0; b < q; ++b) {
    for (std::uint32_t c = 0; c < q; ++c) line_coeffs.push_back({1, b, c});
  }
  for (std::uint32_t c = 0; c < q; ++c) line_coeffs.push_back({0, 1, c});
  line_coeffs.push_back({0, 0, 1});

  std::vector<Block> blocks;
  blocks.reserve(n_points);
  for (const auto& [a, b, c] : line_coeffs) {
    Block line;
    line.reserve(q + 1);
    const auto incident = [&](std::uint32_t x, std::uint32_t y, std::uint32_t z) {
      return f.add(f.add(f.mul(a, x), f.mul(b, y)), f.mul(c, z)) == 0;
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
