// Unit tests for the deterministic PRNG substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

#include "khop/common/rng.hpp"

namespace khop {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntStaysBelowBound) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_int(17), 17u);
  }
}

TEST(Rng, UniformIntCoversAllResidues) {
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntOneIsAlwaysZero) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(1), 0u);
}

TEST(Rng, SpawnIsDeterministic) {
  Rng parent(99);
  Rng a = parent.spawn(5);
  Rng b = Rng(99).spawn(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, SpawnIndependentOfParentDraws) {
  Rng p1(123), p2(123);
  (void)p1();
  (void)p1();
  (void)p1();
  Rng c1 = p1.spawn(7);
  Rng c2 = p2.spawn(7);  // parent p2 has drawn nothing
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c1(), c2());
}

TEST(Rng, SpawnedStreamsDiffer) {
  Rng parent(5);
  Rng a = parent.spawn(0);
  Rng b = parent.spawn(1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, SplitMix64KnownValue) {
  // Reference value from the SplitMix64 definition with state 0:
  // first output is 0xE220A8397B1DCDAF.
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xE220A8397B1DCDAFULL);
}

TEST(Philox, KnownAnswerVectors) {
  // Philox4x32-10 known-answer vectors published with the Random123
  // reference implementation (counter, key) -> output.
  using Words = std::array<std::uint32_t, 4>;
  EXPECT_EQ(philox4x32({0, 0, 0, 0}, {0, 0}),
            (Words{0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8}));
  EXPECT_EQ(philox4x32({0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff},
                       {0xffffffff, 0xffffffff}),
            (Words{0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd}));
  EXPECT_EQ(philox4x32({0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344},
                       {0xa4093822, 0x299f31d0}),
            (Words{0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1}));
}

}  // namespace
}  // namespace khop
