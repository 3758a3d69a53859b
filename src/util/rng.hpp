// Deterministic, fast pseudo-random generator (xoshiro256**) with a
// SplitMix64 seeder. std::mt19937_64 would work but is slower and its
// distributions are not bit-reproducible across standard libraries; every
// experiment in this repo must replay exactly from a seed.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/expect.hpp"

namespace flashqos {

/// Derive a decorrelated per-shard seed from (seed, shard). Code that splits
/// one seeded computation into parts (the P_k sampler's request sizes, the
/// fault-plan generators, the oracles' randomized plans and mixes) gives
/// each part its own stream, so a part's draws never depend on which parts
/// ran before it. SplitMix64 finalizer over the combined words, so adjacent
/// shards land in unrelated regions of the sequence space.
[[nodiscard]] constexpr std::uint64_t shard_seed(std::uint64_t seed,
                                                 std::uint64_t shard) noexcept {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (shard + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    // SplitMix64 expansion of the seed into the 256-bit state.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      s = z ^ (z >> 31);
    }
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Lemire's multiply-shift rejection method.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept {
    FLASHQOS_EXPECT(bound > 0, "Rng::below requires a positive bound");
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept {
    FLASHQOS_EXPECT(lo <= hi, "Rng::between requires lo <= hi");
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool chance(double p) noexcept { return uniform() < p; }

  /// Exponentially distributed value with the given mean (> 0).
  [[nodiscard]] double exponential(double mean) noexcept;

  /// Zipf-distributed rank in [0, n) with exponent `s` (s >= 0; s == 0 is
  /// uniform). Uses inverse-CDF on a precomputed table for small n and
  /// rejection sampling otherwise — see rng.cpp.
  [[nodiscard]] std::size_t zipf(std::size_t n, double s) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = below(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Sample k distinct indices from [0, n) (k <= n), in random order.
  [[nodiscard]] std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                                    std::size_t k);

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace flashqos
