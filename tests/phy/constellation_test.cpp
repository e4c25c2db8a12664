#include "phy/constellation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "dsp/rng.h"

namespace backfi::phy {
namespace {

TEST(GrayTest, EncodeDecodeRoundTrip) {
  for (std::uint32_t v = 0; v < 64; ++v) EXPECT_EQ(gray_decode(gray_encode(v)), v);
}

TEST(GrayTest, AdjacentValuesDifferInOneBit) {
  for (std::uint32_t v = 0; v + 1 < 64; ++v) {
    const std::uint32_t diff = gray_encode(v) ^ gray_encode(v + 1);
    EXPECT_EQ(diff & (diff - 1), 0u) << v;  // power of two -> single bit
  }
}

class WifiConstellationTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WifiConstellationTest, UnitMeanEnergy) {
  const auto& c = wifi_constellation(GetParam());
  EXPECT_NEAR(c.mean_energy(), 1.0, 1e-12);
}

TEST_P(WifiConstellationTest, MapDemapHardRoundTrip) {
  const auto& c = wifi_constellation(GetParam());
  dsp::rng gen(GetParam());
  const bitvec bits = gen.random_bits(c.bits_per_symbol * 100);
  const cvec symbols = c.map(bits);
  EXPECT_EQ(c.demap_hard(symbols), bits);
}

TEST_P(WifiConstellationTest, LlrSignsMatchTransmittedBits) {
  const auto& c = wifi_constellation(GetParam());
  dsp::rng gen(GetParam() + 100);
  const bitvec bits = gen.random_bits(c.bits_per_symbol * 50);
  const cvec symbols = c.map(bits);
  const auto llrs = c.demap_llr_stream(symbols, 0.01);
  ASSERT_EQ(llrs.size(), bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    // positive favours bit 0
    EXPECT_EQ(llrs[i] < 0.0, bits[i] != 0) << "bit " << i;
  }
}

TEST_P(WifiConstellationTest, NoisyLlrMajorityCorrect) {
  const auto& c = wifi_constellation(GetParam());
  dsp::rng gen(GetParam() + 200);
  const bitvec bits = gen.random_bits(c.bits_per_symbol * 500);
  cvec symbols = c.map(bits);
  const double sigma = 0.05;
  for (auto& s : symbols) s += sigma * gen.complex_gaussian();
  const auto llrs = c.demap_llr_stream(symbols, sigma * sigma);
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < bits.size(); ++i)
    if ((llrs[i] < 0.0) != (bits[i] != 0)) ++wrong;
  EXPECT_LT(wrong, bits.size() / 100);
}

INSTANTIATE_TEST_SUITE_P(AllOrders, WifiConstellationTest,
                         ::testing::Values(1u, 2u, 4u, 6u));

TEST(WifiConstellationTest, BpskMapsOnRealAxis) {
  const auto& c = wifi_constellation(1);
  const bitvec bits = {0, 1};
  const cvec pts = c.map(bits);
  EXPECT_NEAR(pts[0].real(), -1.0, 1e-15);
  EXPECT_NEAR(pts[1].real(), 1.0, 1e-15);
  EXPECT_NEAR(pts[0].imag(), 0.0, 1e-15);
}

TEST(WifiConstellationTest, SixteenQamCornerPoint) {
  // Label 0b1010 -> I bits 10 -> +3, Q bits 10 -> +3 (times 1/sqrt(10)).
  const auto& c = wifi_constellation(4);
  const bitvec bits = {1, 0, 1, 0};
  const cvec pts = c.map(bits);
  const double k = 1.0 / std::sqrt(10.0);
  EXPECT_NEAR(pts[0].real(), 3.0 * k, 1e-12);
  EXPECT_NEAR(pts[0].imag(), 3.0 * k, 1e-12);
}

TEST(WifiConstellationTest, RejectsUnsupportedOrder) {
  EXPECT_THROW(wifi_constellation(3), std::invalid_argument);
}

class PskConstellationTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PskConstellationTest, PointsOnUnitCircle) {
  const auto& c = psk_constellation(GetParam());
  for (const cplx& p : c.points) EXPECT_NEAR(std::abs(p), 1.0, 1e-12);
}

TEST_P(PskConstellationTest, AdjacentPhasesAreGrayNeighbours) {
  const auto& c = psk_constellation(GetParam());
  const std::size_t order = c.points.size();
  for (std::size_t k = 0; k < order; ++k) {
    const std::uint32_t diff = c.labels[k] ^ c.labels[(k + 1) % order];
    EXPECT_EQ(diff & (diff - 1), 0u) << "phase step " << k;
  }
}

TEST_P(PskConstellationTest, MapDemapRoundTrip) {
  const auto& c = psk_constellation(GetParam());
  dsp::rng gen(GetParam() + 300);
  const bitvec bits = gen.random_bits(c.bits_per_symbol * 64);
  EXPECT_EQ(c.demap_hard(c.map(bits)), bits);
}

TEST_P(PskConstellationTest, SliceRobustToSmallPhaseError) {
  const auto& c = psk_constellation(GetParam());
  const double half_step = pi / static_cast<double>(c.points.size());
  for (std::size_t k = 0; k < c.points.size(); ++k) {
    const cplx rotated = c.points[k] * cplx{std::cos(half_step * 0.8),
                                            std::sin(half_step * 0.8)};
    EXPECT_EQ(c.slice(rotated), c.labels[k]) << "point " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(AllOrders, PskConstellationTest,
                         ::testing::Values(2u, 4u, 8u, 16u));

TEST(PskConstellationTest, RejectsUnsupportedOrder) {
  EXPECT_THROW(psk_constellation(3), std::invalid_argument);
  EXPECT_THROW(psk_constellation(32), std::invalid_argument);
}

TEST(ConstellationTest, MapRejectsMisalignedBits) {
  const auto& c = wifi_constellation(2);
  const bitvec bits(3, 1);
  EXPECT_THROW(c.map(bits), std::invalid_argument);
}

// The scan slice() replaced: ascending index, strict `<`, first point at the
// minimum distance wins. The vectorized nearest-point kernel must agree on
// every input, including exact ties and non-finite symbols.
std::uint32_t reference_slice(const constellation& c, cplx y) {
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < c.points.size(); ++i) {
    const double d = std::norm(y - c.points[i]);
    if (d < best_dist) {
      best_dist = d;
      best = i;
    }
  }
  return c.labels[best];
}

TEST(SliceKernelTest, MatchesReferenceScanAllConstellations) {
  dsp::rng gen(42);
  std::vector<const constellation*> all;
  for (std::size_t b : {1u, 2u, 4u, 6u}) all.push_back(&wifi_constellation(b));
  for (std::size_t o : {2u, 4u, 8u, 16u}) all.push_back(&psk_constellation(o));
  for (const constellation* c : all) {
    for (int rep = 0; rep < 500; ++rep) {
      const cplx y = 1.5 * gen.complex_gaussian();
      ASSERT_EQ(c->slice(y), reference_slice(*c, y))
          << c->points.size() << " points, y=" << y;
    }
  }
}

TEST(SliceKernelTest, ExactTiesPickTheFirstPoint) {
  // Symbols equidistant from two or more points: the midpoint of every
  // adjacent 16-PSK pair, the origin (equidistant from all points), and
  // 16-QAM decision-boundary crossings. First (lowest-index) point must win,
  // exactly as in the reference scan.
  const auto& psk = psk_constellation(16);
  for (std::size_t i = 0; i < psk.points.size(); ++i) {
    const cplx mid =
        0.5 * (psk.points[i] + psk.points[(i + 1) % psk.points.size()]);
    EXPECT_EQ(psk.slice(mid), reference_slice(psk, mid)) << i;
  }
  EXPECT_EQ(psk.slice(cplx{0.0, 0.0}), reference_slice(psk, cplx{0.0, 0.0}));
  const auto& qam = wifi_constellation(4);
  for (std::size_t i = 0; i < qam.points.size(); ++i)
    for (std::size_t j = i + 1; j < qam.points.size(); ++j) {
      const cplx mid = 0.5 * (qam.points[i] + qam.points[j]);
      EXPECT_EQ(qam.slice(mid), reference_slice(qam, mid)) << i << "," << j;
    }
}

TEST(SliceKernelTest, NonFiniteSymbolReturnsFirstLabel) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t o : {2u, 4u, 8u, 16u}) {
    const auto& c = psk_constellation(o);
    EXPECT_EQ(c.slice(cplx{nan, 0.0}), reference_slice(c, cplx{nan, 0.0}));
    EXPECT_EQ(c.slice(cplx{0.0, nan}), reference_slice(c, cplx{0.0, nan}));
    EXPECT_EQ(c.slice(cplx{inf, -inf}), reference_slice(c, cplx{inf, -inf}));
  }
}

// The per-point, per-bit loop the vectorized max-log kernel replaced:
// every distance is std::norm(y - p), each bit's minima start at +inf and
// take std::min, LLR = (min1 - min0) / var. The kernel must match it bit
// for bit (memcmp), NaN payloads included.
std::vector<double> reference_demap(const constellation& c,
                                    std::span<const cplx> symbols,
                                    double noise_var) {
  const std::size_t bps = c.bits_per_symbol;
  const double inv_var = 1.0 / std::max(noise_var, 1e-30);
  std::vector<double> out;
  for (const cplx& y : symbols) {
    std::vector<double> min0(bps, std::numeric_limits<double>::infinity());
    std::vector<double> min1(bps, std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < c.points.size(); ++i) {
      const double d = std::norm(y - c.points[i]);
      for (std::size_t b = 0; b < bps; ++b) {
        const bool bit = ((c.labels[i] >> (bps - 1 - b)) & 1u) != 0;
        auto& slot = bit ? min1[b] : min0[b];
        slot = std::min(slot, d);
      }
    }
    for (std::size_t b = 0; b < bps; ++b)
      out.push_back((min1[b] - min0[b]) * inv_var);
  }
  return out;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<const constellation*> builtin_constellations() {
  std::vector<const constellation*> all;
  for (std::size_t b : {1u, 2u, 4u, 6u}) all.push_back(&wifi_constellation(b));
  for (std::size_t o : {2u, 4u, 8u, 16u}) all.push_back(&psk_constellation(o));
  return all;
}

// Symbols that stress every branch of the max-log arithmetic: Gaussian
// draws, exact points, the origin, midpoints of every point pair (decision
// boundaries: exact distance ties), magnitudes on both sides of the square
// overflow (~1.34e154) and around 1e300, and NaN/Inf components.
cvec demap_stress_symbols(const constellation& c, dsp::rng& gen) {
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr double inf = std::numeric_limits<double>::infinity();
  cvec y;
  for (int i = 0; i < 203; ++i) y.push_back(1.3 * gen.complex_gaussian());
  for (const cplx& p : c.points) y.push_back(p);
  y.push_back(cplx{0.0, 0.0});
  y.push_back(cplx{-0.0, -0.0});
  for (std::size_t i = 0; i < c.points.size(); ++i)
    for (std::size_t j = i + 1; j < c.points.size(); ++j)
      y.push_back(0.5 * (c.points[i] + c.points[j]));
  for (const double m : {1e154, 1.3e154, 1.4e154, 1e200, 1e300, 1.7e308}) {
    y.push_back(cplx{m, 0.0});
    y.push_back(cplx{0.0, -m});
    y.push_back(cplx{m, m});
    y.push_back(cplx{-m, 0.5});
  }
  for (const double v : {nan, inf, -inf}) {
    y.push_back(cplx{v, 0.0});
    y.push_back(cplx{0.0, v});
    y.push_back(cplx{v, v});
    y.push_back(cplx{v, 0.3});
  }
  y.push_back(cplx{inf, nan});
  y.push_back(cplx{-inf, inf});
  return y;  // deliberately not a multiple of 4 for most constellations
}

TEST(DemapKernelTest, MatchesScalarReferenceAllConstellations) {
  dsp::rng gen(45);
  for (const constellation* c : builtin_constellations()) {
    const cvec symbols = demap_stress_symbols(*c, gen);
    for (const double noise_var : {0.07, 1e-40, 3.0}) {
      const std::vector<double> ref = reference_demap(*c, symbols, noise_var);
      EXPECT_TRUE(bitwise_equal(c->demap_llr_stream(symbols, noise_var), ref))
          << c->points.size() << " points, var " << noise_var;
      // Every stream length 0..9 (the kernel's tail handling).
      for (std::size_t n = 0; n < 10; ++n) {
        const std::span<const cplx> head(symbols.data(), n);
        std::vector<double> got;
        c->demap_llr_stream_into(head, noise_var, got);
        EXPECT_TRUE(bitwise_equal(got, reference_demap(*c, head, noise_var)))
            << c->points.size() << " points, n " << n;
      }
    }
  }
}

TEST(DemapKernelTest, NonFiniteSymbolsGiveTheReferenceNaN) {
  // A symbol with a NaN component has no finite distance: both minima stay
  // +inf and every LLR is the NaN of inf - inf, exactly as in the loop.
  const auto& c = psk_constellation(16);
  const cvec y = {cplx{std::numeric_limits<double>::quiet_NaN(), 0.0}};
  const auto got = c.demap_llr_stream(y, 0.1);
  ASSERT_EQ(got.size(), 4u);
  for (const double v : got) EXPECT_TRUE(std::isnan(v));
  EXPECT_TRUE(bitwise_equal(got, reference_demap(c, y, 0.1)));
}

TEST(DemapKernelTest, ArbitraryLayoutsMatchReference) {
  // Layouts no built-in has: labels out of order with duplicates, fewer
  // points than labels allow, and wide labels. They take the kernel's
  // run-time path, which must agree with the reference too.
  dsp::rng gen(46);
  constellation odd;
  odd.bits_per_symbol = 3;
  odd.points = {cplx{1.0, 0.0}, cplx{0.0, 1.0}, cplx{-1.0, 0.0},
                cplx{0.0, -1.0}, cplx{0.5, 0.5}};
  odd.labels = {5u, 2u, 7u, 2u, 0u};
  constellation wide;
  wide.bits_per_symbol = 12;
  for (std::uint32_t i = 0; i < 40; ++i) {
    wide.points.push_back(gen.complex_gaussian());
    wide.labels.push_back((i * 2654435761u) & 0xfffu);
  }
  for (const constellation* c : {&odd, &wide}) {
    const cvec symbols = demap_stress_symbols(*c, gen);
    EXPECT_TRUE(
        bitwise_equal(c->demap_llr_stream(symbols, 0.2),
                      reference_demap(*c, symbols, 0.2)))
        << c->bits_per_symbol << " bits";
  }
  constellation too_wide;
  too_wide.bits_per_symbol = 33;
  too_wide.points = {cplx{1.0, 0.0}};
  too_wide.labels = {0u};
  std::vector<double> out;
  EXPECT_THROW(too_wide.demap_llr(cplx{0.0, 0.0}, 1.0, out),
               std::invalid_argument);
}

TEST(DemapStreamIntoTest, BitIdenticalToPerSymbolDemap) {
  // demap_llr (one symbol, the WiFi receiver's per-subcarrier form),
  // demap_llr_stream_into and the scalar reference agree bit for bit.
  dsp::rng gen(43);
  for (const constellation* c : builtin_constellations()) {
    cvec symbols(137);
    for (auto& s : symbols) s = gen.complex_gaussian();
    const double noise_var = 0.07;
    std::vector<double> got;
    c->demap_llr_stream_into(symbols, noise_var, got);
    ASSERT_EQ(got.size(), symbols.size() * c->bits_per_symbol);
    EXPECT_TRUE(bitwise_equal(got, reference_demap(*c, symbols, noise_var)));
    std::vector<double> per_symbol;
    for (std::size_t s = 0; s < symbols.size(); ++s) {
      c->demap_llr(symbols[s], noise_var, per_symbol);
      const std::vector<double> ref =
          reference_demap(*c, std::span<const cplx>(&symbols[s], 1), noise_var);
      ASSERT_TRUE(bitwise_equal(per_symbol, ref)) << "symbol " << s;
    }
  }
}

TEST(DemapStreamIntoTest, ReusesWarmBufferAndResizes) {
  const auto& c = psk_constellation(16);
  dsp::rng gen(44);
  cvec big(64), small(8);
  for (auto& s : big) s = gen.complex_gaussian();
  for (auto& s : small) s = gen.complex_gaussian();
  std::vector<double> out;
  c.demap_llr_stream_into(big, 0.1, out);
  EXPECT_EQ(out.size(), big.size() * c.bits_per_symbol);
  c.demap_llr_stream_into(small, 0.1, out);
  EXPECT_EQ(out.size(), small.size() * c.bits_per_symbol);
  EXPECT_EQ(out, c.demap_llr_stream(small, 0.1));
}

}  // namespace
}  // namespace backfi::phy
