#include "dsp/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

namespace backfi::dsp {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  rng gen(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = gen.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  rng gen(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = gen.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  rng gen(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[gen.uniform_int(10)];
  for (int c : counts) {
    EXPECT_GT(c, n / 10 - n / 50);
    EXPECT_LT(c, n / 10 + n / 50);
  }
}

TEST(RngTest, UniformBytesMatchesUniformIntLoopAndStreamPosition) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  for (std::size_t n = 65; n < 4096; n += 97) lengths.push_back(n);
  lengths.insert(lengths.end(), {1500, 4000, 4095, 4096});
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (const std::size_t n : lengths) {
      rng a(seed * 0x9e3779b97f4a7c15ULL + n), b = a;
      std::vector<std::uint8_t> expected(n), got(n, 0xA5);
      for (auto& v : expected) v = static_cast<std::uint8_t>(a.uniform_int(256));
      b.uniform_bytes(got);
      ASSERT_EQ(got, expected) << "seed " << seed << ", " << n << " bytes";
      ASSERT_EQ(b.next_u64(), a.next_u64())
          << "seed " << seed << ", " << n << " bytes";
    }
  }
}

TEST(RngTest, GaussianMomentsMatchStandardNormal) {
  rng gen(13);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = gen.gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(RngTest, ComplexGaussianUnitPowerAndCircular) {
  rng gen(17);
  const int n = 100000;
  double power = 0.0;
  cplx mean{0.0, 0.0};
  cplx pseudo{0.0, 0.0};  // E[z^2] should vanish for circular symmetry
  for (int i = 0; i < n; ++i) {
    const cplx z = gen.complex_gaussian();
    power += std::norm(z);
    mean += z;
    pseudo += z * z;
  }
  EXPECT_NEAR(power / n, 1.0, 0.02);
  EXPECT_NEAR(std::abs(mean) / n, 0.0, 0.01);
  EXPECT_NEAR(std::abs(pseudo) / n, 0.0, 0.02);
}

TEST(RngTest, BernoulliMatchesProbability) {
  rng gen(19);
  const int n = 100000;
  int ones = 0;
  for (int i = 0; i < n; ++i) ones += gen.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialMeanMatches) {
  rng gen(23);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += gen.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(RngTest, ForkProducesIndependentStream) {
  rng parent(29);
  rng child = parent.fork();
  // Child stream should not replicate the parent stream.
  rng parent_copy(29);
  (void)parent_copy.next_u64();  // same position as parent after fork
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (child.next_u64() == parent_copy.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, RandomBitsAreZeroOrOne) {
  rng gen(31);
  const auto bits = gen.random_bits(1000);
  ASSERT_EQ(bits.size(), 1000u);
  int ones = 0;
  for (auto b : bits) {
    ASSERT_LE(b, 1);
    ones += b;
  }
  EXPECT_GT(ones, 400);
  EXPECT_LT(ones, 600);
}

}  // namespace
}  // namespace backfi::dsp
