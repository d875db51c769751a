#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

namespace m2hew::util {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  std::uint64_t s1 = 42;
  std::uint64_t s2 = 42;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  }
  EXPECT_EQ(s1, s2);
}

TEST(SplitMix64, DifferentStatesDiverge) {
  std::uint64_t a = 1;
  std::uint64_t b = 2;
  EXPECT_NE(splitmix64(a), splitmix64(b));
}

TEST(Xoshiro256, SameSeedSameStream) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, ZeroSeedIsNotDegenerate) {
  Xoshiro256 g(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(g());
  EXPECT_GT(seen.size(), 95u);  // distinct values, not a fixed point
}

TEST(Xoshiro256, JumpDecorrelatesStreams) {
  Xoshiro256 a(9);
  Xoshiro256 b(9);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.uniform(bound), bound);
    }
  }
}

TEST(Rng, UniformBoundOneIsAlwaysZero) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(5);
  constexpr std::uint64_t kBound = 10;
  constexpr int kDraws = 100000;
  std::array<int, kBound> counts{};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform(kBound)];
  const double expected = kDraws / static_cast<double>(kBound);
  for (const int c : counts) {
    EXPECT_NEAR(c, expected, 5 * std::sqrt(expected));
  }
}

// Modulo-bias regression at a large bound. With bound = 3·2^62, a naive
// `next() % bound` folds the top quarter of the 64-bit range back onto
// [0, 2^62), giving the first third of the output range probability 1/2
// instead of 1/3 — a bias far outside any statistical noise. The
// multiply-shift rejection in Rng::uniform must keep all thirds at 1/3.
// Chi-squared with 2 degrees of freedom: 99.9th percentile is 13.8.
TEST(Rng, UniformUnbiasedAtLargeBound) {
  constexpr std::uint64_t kBound = 3ULL << 62;  // 0xC000000000000000
  constexpr std::uint64_t kThird = 1ULL << 62;
  constexpr int kDraws = 100000;
  Rng rng(0xB1A5ED);
  std::array<std::int64_t, 3> counts{};
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t x = rng.uniform(kBound);
    ASSERT_LT(x, kBound);
    ++counts[x / kThird];
  }
  const double expected = kDraws / 3.0;
  double chi2 = 0.0;
  for (const auto c : counts) {
    const double diff = static_cast<double>(c) - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_LT(chi2, 13.8) << counts[0] << " " << counts[1] << " " << counts[2];
}

// Same check near the opposite hazard: a bound just above 2^63, where the
// acceptance region of a rejection sampler is barely over half the 64-bit
// range. Buckets are the two halves of [0, bound).
TEST(Rng, UniformUnbiasedJustAbovePowerOfTwo) {
  constexpr std::uint64_t kBound = (1ULL << 63) + (1ULL << 62);
  constexpr int kDraws = 100000;
  Rng rng(0xFEED);
  std::int64_t low = 0;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t x = rng.uniform(kBound);
    ASSERT_LT(x, kBound);
    if (x < kBound / 2) ++low;
  }
  const double expected = kDraws / 2.0;
  const double diff = static_cast<double>(low) - expected;
  const double chi2 = 2.0 * diff * diff / expected;
  EXPECT_LT(chi2, 10.8);  // chi² df=1, 99.9th percentile
}

TEST(Rng, UniformRangeInclusiveEndpointsReachable) {
  Rng rng(6);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto x = rng.uniform_range(-2, 2);
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 2);
    saw_lo |= (x == -2);
    saw_hi |= (x == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRangeSingleton) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_range(5, 5), 5);
}

TEST(Rng, UniformDoubleInHalfOpenUnitInterval) {
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformDoubleRangeAndMean) {
  Rng rng(9);
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.uniform_double(2.0, 6.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 6.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kDraws, 4.0, 0.05);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(11);
  constexpr int kDraws = 100000;
  int hits = 0;
  for (int i = 0; i < kDraws; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(kDraws), 0.3, 0.01);
}

TEST(Rng, PickCoversAllElements) {
  Rng rng(12);
  const std::vector<int> items{10, 20, 30};
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.pick(std::span<const int>(items)));
  }
  EXPECT_EQ(seen, (std::set<int>{10, 20, 30}));
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(13);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  rng.shuffle(std::span<int>(shuffled));
  EXPECT_FALSE(std::equal(v.begin(), v.end(), shuffled.begin()))
      << "50 elements should virtually never shuffle to identity";
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(v, shuffled);
}

// --- Golden values --------------------------------------------------------
//
// Exact outputs for fixed seeds. Every pinned result artifact and perfbench
// digest depends on these streams, so any change to the generator or to a
// distribution's draw shape must show up here, not only as drifted
// downstream numbers.

TEST(RngGolden, Xoshiro256Streams) {
  const std::array<std::array<std::uint64_t, 4>, 3> expected = {{
      {0x99EC5F36CB75F2B4ULL, 0xBF6E1F784956452AULL, 0x1A5F849D4933E6E0ULL,
       0x6AA594F1262D2D2CULL},
      {0xB3F2AF6D0FC710C5ULL, 0x853B559647364CEAULL, 0x92F89756082A4514ULL,
       0x642E1C7BC266A3A7ULL},
      {0x74A41DECDB6184ABULL, 0xF9B2BA7286D85582ULL, 0x01968D9FB77B48F2ULL,
       0x2B9E61C81C94046EULL},
  }};
  const std::array<std::uint64_t, 3> seeds = {0, 1, 7919};
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    Xoshiro256 g(seeds[s]);
    for (const std::uint64_t want : expected[s]) {
      EXPECT_EQ(g(), want) << "seed " << seeds[s];
    }
  }
}

TEST(RngGolden, UniformSmallBounds) {
  Rng rng(1);
  const std::array<std::uint64_t, 6> bounds = {1, 2, 3, 6, 10, 1000};
  const std::array<std::uint64_t, 6> expected = {0, 1, 1, 2, 6, 143};
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    EXPECT_EQ(rng.uniform(bounds[i]), expected[i]) << "bound " << bounds[i];
  }
}

// A bound just above 2^63 rejects almost half of all raw draws. Seed 1's
// first draw is rejected: the call consumes two raw outputs.
TEST(RngGolden, UniformRejectionBranch) {
  constexpr std::uint64_t kBound = (1ULL << 63) + 1;
  Rng rng(1);
  Rng raw(1);
  EXPECT_EQ(rng.uniform(kBound), 0x429DAACB239B2675ULL);
  (void)raw.next_u64();
  (void)raw.next_u64();
  EXPECT_EQ(rng.next_u64(), raw.next_u64());
}

TEST(RngGolden, UniformRange) {
  Rng rng(7919);
  EXPECT_EQ(rng.uniform_range(-5, 5), 0);
  EXPECT_EQ(rng.uniform_range(-5, 5), 5);
  EXPECT_EQ(rng.uniform_range(100, 100), 100);
  EXPECT_EQ(rng.uniform_range(std::numeric_limits<std::int64_t>::min(),
                              std::numeric_limits<std::int64_t>::max()),
            -6080314934802774930LL);
  EXPECT_EQ(rng.uniform_range(-1000000007, 3), -707864346);
}

TEST(RngGolden, UniformDouble) {
  Rng rng(42);
  EXPECT_EQ(rng.uniform_double(), 0x1.5780b2e0c2ecp-4);
  EXPECT_EQ(rng.uniform_double(), 0x1.84136619b444ep-2);
  EXPECT_EQ(rng.uniform_double(), 0x1.5c2ea66473c93p-1);
  EXPECT_EQ(rng.uniform_double(-2.0, 3.0), 0x1.4fcdb13189408p+1);
}

TEST(RngGolden, Bernoulli) {
  Rng rng(5);
  const char* const expected = "1000000000010000";
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(rng.bernoulli(0.3), expected[i] == '1') << "draw " << i;
  }
  // p <= 0 and p >= 1 decide without drawing.
  Rng clamped(5);
  Rng untouched(5);
  EXPECT_FALSE(clamped.bernoulli(0.0));
  EXPECT_FALSE(clamped.bernoulli(-1.0));
  EXPECT_TRUE(clamped.bernoulli(1.0));
  EXPECT_TRUE(clamped.bernoulli(2.0));
  EXPECT_EQ(clamped.next_u64(), untouched.next_u64());
}

TEST(SeedSequence, DerivedSeedsAreStable) {
  const SeedSequence seq(99);
  EXPECT_EQ(seq.derive(0), seq.derive(0));
  EXPECT_EQ(seq.derive(1, 2), seq.derive(1, 2));
}

TEST(SeedSequence, DerivedSeedsDiffer) {
  const SeedSequence seq(99);
  EXPECT_NE(seq.derive(0), seq.derive(1));
  EXPECT_NE(seq.derive(1, 2), seq.derive(2, 1));
  const SeedSequence other(100);
  EXPECT_NE(seq.derive(0), other.derive(0));
}

TEST(SeedSequence, ChildStreamsLookIndependent) {
  const SeedSequence seq(123);
  Rng a(seq.derive(0));
  Rng b(seq.derive(1));
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

}  // namespace
}  // namespace m2hew::util
