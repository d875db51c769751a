#include "util/rng.hpp"

namespace m2hew::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  // Seed the full 256-bit state from SplitMix64 so that even seed = 0
  // produces a well-mixed state (the all-zero state is a fixed point of
  // xoshiro and must be avoided).
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

void Xoshiro256::jump() noexcept {
  static constexpr std::array<std::uint64_t, 4> kJump = {
      0x180EC6D33CFD0ABAULL, 0xD5A61266F0C9392CULL, 0xA9582618E03FC9AAULL,
      0x39ABDC4529B1661CULL};
  std::array<std::uint64_t, 4> acc = {0, 0, 0, 0};
  for (const std::uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if ((word & (1ULL << bit)) != 0) {
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= state_[i];
      }
      (void)(*this)();
    }
  }
  state_ = acc;
}

std::uint64_t Rng::uniform_reject(__uint128_t m, std::uint64_t bound) noexcept {
  const std::uint64_t threshold = (0 - bound) % bound;
  while (static_cast<std::uint64_t>(m) < threshold) {
    m = static_cast<__uint128_t>(next_u64()) * bound;
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_range(std::int64_t lo, std::int64_t hi) noexcept {
  M2HEW_DCHECK(lo <= hi);
  const auto width =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  // width == 0 means the full 64-bit range [INT64_MIN, INT64_MAX].
  const std::uint64_t draw = (width == 0) ? next_u64() : uniform(width);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + draw);
}

double Rng::uniform_double(double lo, double hi) noexcept {
  M2HEW_DCHECK(lo <= hi);
  return lo + (hi - lo) * uniform_double();
}

std::uint64_t SeedSequence::derive(std::uint64_t index) const noexcept {
  std::uint64_t s = root_ ^ (index * 0xA24BAED4963EE407ULL + 1);
  (void)splitmix64(s);
  return splitmix64(s);
}

std::uint64_t SeedSequence::derive(std::uint64_t a,
                                   std::uint64_t b) const noexcept {
  std::uint64_t s = derive(a) ^ (b * 0x9FB21C651E98DF25ULL + 1);
  (void)splitmix64(s);
  return splitmix64(s);
}

}  // namespace m2hew::util
