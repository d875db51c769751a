// Deterministic, splittable pseudo-random number generation.
//
// Every stochastic component of the simulator (node policies, topology
// generators, clock-drift models) draws from an Rng seeded through a
// SeedSequence, so a whole experiment is reproducible from a single root
// seed.  The generator is xoshiro256** (Blackman & Vigna), seeded via
// SplitMix64 per the authors' recommendation.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>

#include "util/check.hpp"

namespace m2hew::util {

/// SplitMix64 step: advances `state` and returns the next 64-bit output.
/// Used for seeding and for cheap hash-like stream derivation.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** generator. Satisfies std::uniform_random_bit_generator so it
/// can also drive <random> distributions where convenient.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed) noexcept;

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

  /// Jump function: advances the state by 2^128 steps, giving a stream
  /// independent of the original for any realistic draw count.
  void jump() noexcept;

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x,
                                                    int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
};

/// Convenience façade over Xoshiro256 with the distributions this library
/// needs. All methods are branch-light and allocation-free.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : gen_(seed) {}

  /// Raw 64 random bits.
  [[nodiscard]] std::uint64_t next_u64() noexcept { return gen_(); }

  /// Uniform integer in [0, bound). Requires bound > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  [[nodiscard]] std::uint64_t uniform(std::uint64_t bound) noexcept {
    M2HEW_DCHECK(bound > 0);
    const __uint128_t m = static_cast<__uint128_t>(next_u64()) * bound;
    if (static_cast<std::uint64_t>(m) < bound) [[unlikely]] {
      return uniform_reject(m, bound);
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_range(std::int64_t lo,
                                           std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform_double() noexcept {
    // 53 high bits → uniform double in [0, 1) with full mantissa resolution.
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform_double(double lo, double hi) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  [[nodiscard]] bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform_double() < p;
  }

  /// Uniformly chosen element of a non-empty span.
  template <typename T>
  [[nodiscard]] const T& pick(std::span<const T> items) noexcept {
    M2HEW_DCHECK(!items.empty());
    return items[static_cast<std::size_t>(uniform(items.size()))];
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  /// Lemire's rejection step, out of line: entered when the low word of
  /// the first product `m` falls below `bound`; redraws while it falls
  /// below 2⁶⁴ mod bound.
  [[nodiscard]] std::uint64_t uniform_reject(__uint128_t m,
                                             std::uint64_t bound) noexcept;

  Xoshiro256 gen_;
};

/// Derives independent child seeds from a root seed plus a stream index.
/// Child k of the same (root, k) pair is always identical; different k give
/// statistically independent streams.
class SeedSequence {
 public:
  explicit SeedSequence(std::uint64_t root_seed) noexcept
      : root_(root_seed) {}

  /// Seed for stream `index` (e.g. one per node, one per trial).
  [[nodiscard]] std::uint64_t derive(std::uint64_t index) const noexcept;

  /// Two-level derivation, e.g. (trial, node).
  [[nodiscard]] std::uint64_t derive(std::uint64_t a,
                                     std::uint64_t b) const noexcept;

  [[nodiscard]] std::uint64_t root() const noexcept { return root_; }

 private:
  std::uint64_t root_;
};

}  // namespace m2hew::util
