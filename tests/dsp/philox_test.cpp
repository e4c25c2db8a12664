// Counter-based Gaussian generator (dsp/philox.h): Random123 known-answer
// vectors, counter purity under any offset or chunking, bitwise agreement
// of the library kernel with the scalar reference below, and distribution
// checks at a fixed key.
#include "dsp/philox.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace backfi::dsp {
namespace {

// --- Scalar reference -----------------------------------------------------
// An independent transcription of the contract in philox.h and the
// arithmetic in philox_kernels.cpp, on top of the constexpr block function
// the known-answer tests pin. This file is compiled with contraction off
// (tests/CMakeLists.txt), so it rounds exactly like the kernel TU.

double ref_log(double u) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(u);
  double m = std::bit_cast<double>((bits & 0x000FFFFFFFFFFFFFULL) |
                                   0x3FF0000000000000ULL);
  double k = static_cast<double>(static_cast<int>(bits >> 52) - 1023);
  if (m > 1.41421356237309514547) {
    m = m * 0.5;
    k = k + 1.0;
  }
  const double f = m - 1.0;
  const double hfsq = 0.5 * f * f;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (3.999999999940941908e-01 +
                         w * (2.222219843214978396e-01 +
                              w * 1.531383769920937332e-01));
  const double t2 =
      z * (6.666666666666735130e-01 +
           w * (2.857142874366239149e-01 +
                w * (1.818357216161805012e-01 + w * 1.479819860511658591e-01)));
  const double r = t2 + t1;
  return k * 6.93147180369123816490e-01 -
         ((hfsq - (s * (hfsq + r) + k * 1.90821492927058770002e-10)) - f);
}

/// sin and cos of 2*pi*t for t in [0, 1).
void ref_sincos_turns(double t, double& sn, double& cs) {
  const double q = static_cast<double>(static_cast<int>(4.0 * t + 0.5));
  const double x = (t - 0.25 * q) * two_pi;
  const double z = x * x;
  const double sr =
      8.33333333332248946124e-03 +
      z * (-1.98412698298579493134e-04 +
           z * (2.75573137070700676789e-06 +
                z * (-2.50507602534068634195e-08 +
                     z * 1.58969099521155010221e-10)));
  const double s = x + (z * x) * (-1.66666666666666324348e-01 + z * sr);
  const double cr =
      z * (4.16666666666666019037e-02 +
           z * (-1.38888888888741095749e-03 +
                z * (2.48015872894767294178e-05 +
                     z * (-2.75573143513906633035e-07 +
                          z * (2.08757232129817482790e-09 +
                               z * -1.13596475577881948265e-11)))));
  const double hz = 0.5 * z;
  const double w = 1.0 - hz;
  const double c = w + (((1.0 - w) - hz) + z * cr);
  switch (static_cast<int>(q) & 3) {
    case 0: sn = s; cs = c; break;
    case 1: sn = c; cs = -s; break;
    case 2: sn = -s; cs = -c; break;
    default: sn = -c; cs = s; break;
  }
}

double ref_normal(std::uint64_t key, std::uint64_t n) {
  const std::uint64_t block = n >> 1;
  const auto x = philox4x32_10(
      {static_cast<std::uint32_t>(block), static_cast<std::uint32_t>(block >> 32),
       0u, 0u},
      {static_cast<std::uint32_t>(key), static_cast<std::uint32_t>(key >> 32)});
  const std::uint64_t w1 = x[0] | (std::uint64_t{x[1]} << 32);
  const std::uint64_t w2 = x[2] | (std::uint64_t{x[3]} << 32);
  const double u1 = (static_cast<double>(w1 >> 12) + 0.5) * 0x1p-52;
  const double t = static_cast<double>(w2 >> 12) * 0x1p-52;
  const double radius = std::sqrt(-2.0 * ref_log(u1));
  double sn, cs;
  ref_sincos_turns(t, sn, cs);
  return (n & 1) ? radius * sn : radius * cs;
}

std::vector<double> normals(std::uint64_t key, std::uint64_t first,
                            std::size_t n) {
  std::vector<double> out(n);
  fill_normals(key, first, out);
  return out;
}

// --- Known answers --------------------------------------------------------

TEST(PhiloxTest, Random123KnownAnswerVectors) {
  using w4 = std::array<std::uint32_t, 4>;
  static_assert(philox4x32_10({0, 0, 0, 0}, {0, 0}) ==
                w4{0x6627e8d5u, 0xe169c58du, 0xbc57ac4cu, 0x9b00dbd8u});
  EXPECT_EQ(philox4x32_10({0, 0, 0, 0}, {0, 0}),
            (w4{0x6627e8d5u, 0xe169c58du, 0xbc57ac4cu, 0x9b00dbd8u}));
  EXPECT_EQ(philox4x32_10({0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu},
                          {0xffffffffu, 0xffffffffu}),
            (w4{0x408f276du, 0x41c83b0eu, 0xa20bc7c6u, 0x6d5451fdu}));
  EXPECT_EQ(philox4x32_10({0x243f6a88u, 0x85a308d3u, 0x13198a2eu, 0x03707344u},
                          {0xa4093822u, 0x299f31d0u}),
            (w4{0xd16cfe09u, 0x94fdccebu, 0x5001e420u, 0x24126ea1u}));
}

// --- Kernel == scalar reference ------------------------------------------

TEST(PhiloxTest, FillMatchesScalarReferenceBitwise) {
  for (const std::uint64_t key :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0x9e3779b97f4a7c15ULL},
        ~std::uint64_t{0}}) {
    // Offsets straddle the 32-bit counter word boundary too.
    for (const std::uint64_t first :
         {std::uint64_t{0}, std::uint64_t{3}, std::uint64_t{0x1FFFFFFFDULL}}) {
      const auto got = normals(key, first, 1031);
      for (std::size_t j = 0; j < got.size(); ++j)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[j]),
                  std::bit_cast<std::uint64_t>(ref_normal(key, first + j)))
            << "key " << key << " first " << first << " j " << j;
    }
  }
}

TEST(PhiloxTest, ComplexAddMatchesScalarReferenceBitwise) {
  const std::uint64_t key = 0x1234abcd5678ef01ULL;
  const double amp = 0.37;
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                              std::size_t{7}, std::size_t{257}}) {
    cvec x(n, cplx{0.5, -0.25});
    add_complex_normals(key, 11, x, amp);
    const double s = amp * 0.7071067811865476;
    for (std::size_t i = 0; i < n; ++i) {
      const double re = 0.5 + s * ref_normal(key, 2 * (11 + i));
      const double im = -0.25 + s * ref_normal(key, 2 * (11 + i) + 1);
      ASSERT_EQ(x[i].real(), re) << "n " << n << " i " << i;
      ASSERT_EQ(x[i].imag(), im) << "n " << n << " i " << i;
    }
  }
}

// --- Counter purity -------------------------------------------------------

TEST(PhiloxTest, FillAtOffsetEqualsSliceOfOneLongFill) {
  const std::uint64_t key = 77;
  const auto whole = normals(key, 0, 600);
  for (const std::uint64_t k : {1u, 2u, 7u, 8u, 9u, 333u}) {
    const auto part = normals(key, k, 600 - k);
    for (std::size_t j = 0; j < part.size(); ++j)
      ASSERT_EQ(part[j], whole[k + j]) << "offset " << k << " j " << j;
  }
}

TEST(PhiloxTest, OddAndUnalignedChunksEqualOneLongFill) {
  const std::uint64_t key = 0xC0FFEEULL;
  const auto whole = normals(key, 5, 1000);
  std::vector<double> chunked(1000);
  std::size_t pos = 0;
  for (const std::size_t len : {1u, 3u, 8u, 5u, 17u, 2u, 64u, 9u}) {
    fill_normals(key, 5 + pos, std::span(chunked).subspan(pos, len));
    pos += len;
  }
  fill_normals(key, 5 + pos, std::span(chunked).subspan(pos));
  EXPECT_EQ(chunked, whole);

  cvec long_x(301, cplx{0.0, 0.0});
  add_complex_normals(key, 0, long_x, 1.0);
  cvec split_x(301, cplx{0.0, 0.0});
  std::size_t at = 0;
  for (const std::size_t len : {5u, 1u, 3u, 100u, 2u}) {
    add_complex_normals(key, at, std::span(split_x).subspan(at, len), 1.0);
    at += len;
  }
  add_complex_normals(key, at, std::span(split_x).subspan(at), 1.0);
  EXPECT_EQ(split_x, long_x);
}

TEST(PhiloxTest, ComplexSampleIsNormalPairOfItsIndex) {
  const std::uint64_t key = 4242;
  cvec x(50, cplx{0.0, 0.0});
  add_complex_normals(key, 20, x, std::sqrt(2.0));
  const auto g = normals(key, 40, 100);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i].real(), g[2 * i], 1e-15 * (1.0 + std::abs(g[2 * i])));
    EXPECT_NEAR(x[i].imag(), g[2 * i + 1],
                1e-15 * (1.0 + std::abs(g[2 * i + 1])));
  }
}

TEST(PhiloxTest, KeysGiveUnrelatedStreams) {
  const auto a = normals(1, 0, 64);
  const auto b = normals(2, 0, 64);
  int same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) same += a[i] == b[i];
  EXPECT_EQ(same, 0);
}

// --- Reference transform accuracy ----------------------------------------

TEST(PhiloxTest, ReferenceLogAndSinCosAreAccurate) {
  double worst_log = 0.0;
  double worst_trig = 0.0;
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t k = philox4x32_10({static_cast<std::uint32_t>(i), 0, 0, 0},
                                          {9, 9})[0];
    // Radius uniforms across every binade the kernel can produce.
    const double u = (static_cast<double>(k >> 12) + 0.5) * 0x1p-52 /
                     static_cast<double>(std::uint64_t{1} << (i % 40));
    const double exact = std::log(u);
    worst_log = std::max(worst_log, std::abs(ref_log(u) - exact) / std::abs(exact));
    const double t = static_cast<double>(k >> 12) * 0x1p-52;
    double sn, cs;
    ref_sincos_turns(t, sn, cs);
    worst_trig = std::max({worst_trig, std::abs(sn - std::sin(two_pi * t)),
                           std::abs(cs - std::cos(two_pi * t))});
  }
  EXPECT_LT(worst_log, 4.5e-16);
  EXPECT_LT(worst_trig, 1e-15);
  EXPECT_EQ(ref_log(1.0), 0.0);
  EXPECT_NEAR(ref_log(0x1p-53), -53.0 * std::log(2.0), 1e-13);
}

// --- Distribution at a fixed key ------------------------------------------

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

TEST(PhiloxTest, MomentsAndTailMassesMatchStandardNormal) {
  constexpr std::size_t n = std::size_t{1} << 24;
  const auto g = normals(0x5EED5EEDULL, 0, n);
  double m1 = 0.0, m2 = 0.0, m3 = 0.0, m4 = 0.0, pair = 0.0;
  std::size_t beyond3 = 0, beyond5 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = g[i];
    const double v2 = v * v;
    m1 += v;
    m2 += v2;
    m3 += v2 * v;
    m4 += v2 * v2;
    if (std::abs(v) > 3.0) ++beyond3;
    if (std::abs(v) > 5.0) ++beyond5;
    if (i % 2 == 0) pair += v * g[i + 1];
  }
  const double dn = static_cast<double>(n);
  const double mean = m1 / dn;
  const double var = m2 / dn - mean * mean;
  // Five standard errors of each estimator at n = 2^24.
  EXPECT_NEAR(mean, 0.0, 5.0 * std::sqrt(1.0 / dn));
  EXPECT_NEAR(var, 1.0, 5.0 * std::sqrt(2.0 / dn));
  EXPECT_NEAR(m3 / dn, 0.0, 5.0 * std::sqrt(15.0 / dn));
  EXPECT_NEAR(m4 / dn, 3.0, 5.0 * std::sqrt(96.0 / dn));
  // The cosine and sine branch of one block are uncorrelated.
  EXPECT_NEAR(pair / (dn / 2.0), 0.0, 5.0 * std::sqrt(2.0 / dn));

  const double p3 = 2.0 * normal_cdf(-3.0);  // 0.0026998
  const double e3 = p3 * dn;
  EXPECT_NEAR(static_cast<double>(beyond3), e3, 5.0 * std::sqrt(e3));
  const double e5 = 2.0 * normal_cdf(-5.0) * dn;  // ~9.6 expected
  EXPECT_GE(beyond5, 1u);
  EXPECT_LE(static_cast<double>(beyond5), e5 + 5.0 * std::sqrt(e5));
}

TEST(PhiloxTest, KolmogorovSmirnovAgainstNormalCdf) {
  constexpr std::size_t n = std::size_t{1} << 20;
  auto g = normals(0xBADC0DEULL, 1, n);
  std::sort(g.begin(), g.end());
  double d = 0.0;
  const double dn = static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double f = normal_cdf(g[i]);
    d = std::max({d, static_cast<double>(i + 1) / dn - f,
                  f - static_cast<double>(i) / dn});
  }
  // Critical value of the KS statistic at alpha = 0.001: 1.95 / sqrt(n).
  EXPECT_LT(d, 1.95 / std::sqrt(dn));
}

TEST(PhiloxTest, ComplexNoiseHasRequestedPower) {
  cvec x(1u << 20, cplx{0.0, 0.0});
  add_complex_normals(31337, 0, x, std::sqrt(0.04));
  double p = 0.0;
  double cross = 0.0;
  for (const cplx& v : x) {
    p += std::norm(v);
    cross += v.real() * v.imag();
  }
  const double dn = static_cast<double>(x.size());
  EXPECT_NEAR(p / dn, 0.04, 5.0 * 0.04 / std::sqrt(dn));
  EXPECT_NEAR(cross / dn, 0.0, 5.0 * 0.02 / std::sqrt(dn));
}

}  // namespace
}  // namespace backfi::dsp
