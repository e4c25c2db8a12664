#include "dsp/fir.h"

#include <gtest/gtest.h>
#include <algorithm>
#include <cstdint>

#include "dsp/rng.h"
#include "dsp/vec_ops.h"

namespace backfi::dsp {
namespace {

// The original scatter-form convolution, kept as the independent reference
// every convolution path must reproduce bit for bit.
cvec reference_convolve(const cvec& x, const cvec& h) {
  if (x.empty() || h.empty()) return {};
  cvec out(x.size() + h.size() - 1, cplx{0.0, 0.0});
  for (std::size_t i = 0; i < x.size(); ++i)
    for (std::size_t k = 0; k < h.size(); ++k) out[i + k] += x[i] * h[k];
  return out;
}

void expect_bit_identical(const cvec& actual, const cvec& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i].real(), expected[i].real()) << "i=" << i;
    ASSERT_EQ(actual[i].imag(), expected[i].imag()) << "i=" << i;
  }
}

TEST(FirTest, ConvolveWithDeltaIsIdentity) {
  const cvec x = {{1.0, 2.0}, {3.0, -1.0}, {0.5, 0.5}};
  const cvec delta = {cplx{1.0, 0.0}};
  const cvec y = convolve(x, delta);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-15);
}

TEST(FirTest, ConvolveWithShiftedDeltaDelays) {
  const cvec x = {{1.0, 0.0}, {2.0, 0.0}};
  const cvec h = {{0.0, 0.0}, {0.0, 0.0}, {1.0, 0.0}};
  const cvec y = convolve(x, h);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_NEAR(std::abs(y[0]), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(y[1]), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(y[2] - cplx(1.0, 0.0)), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(y[3] - cplx(2.0, 0.0)), 0.0, 1e-15);
}

TEST(FirTest, ConvolutionIsCommutative) {
  rng gen(8);
  cvec x(20), h(5);
  for (auto& v : x) v = gen.complex_gaussian();
  for (auto& v : h) v = gen.complex_gaussian();
  const cvec xy = convolve(x, h);
  const cvec yx = convolve(h, x);
  ASSERT_EQ(xy.size(), yx.size());
  for (std::size_t i = 0; i < xy.size(); ++i)
    EXPECT_NEAR(std::abs(xy[i] - yx[i]), 0.0, 1e-12);
}

TEST(FirTest, ConvolveEmptyReturnsEmpty) {
  const cvec x;
  const cvec h = {cplx{1.0, 0.0}};
  EXPECT_TRUE(convolve(x, h).empty());
  EXPECT_TRUE(convolve(h, x).empty());
}

TEST(FirTest, ConvolveSameTruncatesToInputLength) {
  rng gen(9);
  cvec x(50), h(7);
  for (auto& v : x) v = gen.complex_gaussian();
  for (auto& v : h) v = gen.complex_gaussian();
  const cvec same = convolve_same(x, h);
  const cvec full = convolve(x, h);
  ASSERT_EQ(same.size(), x.size());
  for (std::size_t i = 0; i < same.size(); ++i)
    EXPECT_NEAR(std::abs(same[i] - full[i]), 0.0, 1e-15);
}

TEST(FirTest, ConvolveLongKernelsBitIdenticalToDirect) {
  rng seeds(77);
  // Kernels as long as or longer than the signal, including non-power-of-two
  // lengths and a signal shorter than the kernel.
  const struct { std::size_t nx, nh; } cases[] = {
      {1000, 97}, {1 << 12, 256}, {513, 129}, {200, 200}, {96, 1024}};
  for (const auto& c : cases) {
    rng gen(seeds.next_u64());
    cvec x(c.nx), h(c.nh);
    for (auto& v : x) v = gen.complex_gaussian();
    for (auto& v : h) v = gen.complex_gaussian();
    SCOPED_TRACE(testing::Message() << "nx=" << c.nx << " nh=" << c.nh);
    expect_bit_identical(convolve(x, h), reference_convolve(x, h));
  }
}

TEST(FirTest, ConvolveShortKernelsStayBitIdenticalToDirect) {
  rng gen(79);
  cvec x(512);
  for (auto& v : x) v = gen.complex_gaussian();
  for (const std::size_t taps : {std::size_t{1}, std::size_t{6}, std::size_t{8},
                                 std::size_t{95}}) {
    cvec h(taps);
    for (auto& v : h) v = gen.complex_gaussian();
    SCOPED_TRACE(testing::Message() << "taps=" << taps);
    expect_bit_identical(convolve(x, h), reference_convolve(x, h));
  }
}

cvec window_vec(std::size_t n, std::uint64_t seed) {
  rng gen(seed);
  cvec v(n);
  for (auto& s : v) s = gen.complex_gaussian();
  return v;
}

// The window form writes exactly its window: computed into a slice of a
// zeroed capture-length buffer, everything outside the slice stays zero.
cvec same_window_in_zeros(const cvec& x, const cvec& h, std::size_t begin,
                          std::size_t end) {
  cvec out(x.size(), cplx{0.0, 0.0});
  const std::size_t e = std::min(end, x.size());
  const std::size_t b = std::min(begin, e);
  convolve_same_window(x, h, b, std::span(out).subspan(b, e - b));
  return out;
}

TEST(FirTest, ConvolveSameRangeBitIdenticalInsideWindowZeroOutside) {
  const cvec x = window_vec(300, 101);
  const cvec h = window_vec(5, 102);
  const cvec full = convolve_same(x, h);
  const std::size_t windows[][2] = {{0, 300},   {0, 0},     {10, 11},
                                    {37, 123},  {250, 300}, {290, 1000},
                                    {300, 300}, {500, 600}};
  for (const auto& w : windows) {
    const cvec ranged = same_window_in_zeros(x, h, w[0], w[1]);
    ASSERT_EQ(ranged.size(), x.size());
    const std::size_t hi = w[1] < x.size() ? w[1] : x.size();
    const std::size_t lo = w[0] < hi ? w[0] : hi;
    for (std::size_t i = 0; i < ranged.size(); ++i) {
      const cplx want = (i >= lo && i < hi) ? full[i] : cplx{0.0, 0.0};
      ASSERT_EQ(ranged[i], want)
          << "window [" << w[0] << ", " << w[1] << ") sample " << i;
    }
  }
}

TEST(FirTest, ConvolveSameRangeAllZeroTapsGiveZeroWindow) {
  const cvec x = window_vec(64, 103);
  const cvec h(4, cplx{0.0, 0.0});
  const cvec ranged = same_window_in_zeros(x, h, 5, 20);
  for (const auto& v : ranged) ASSERT_EQ(v, cplx(0.0, 0.0));
}

TEST(FirTest, ConvolveSameWindowMatchesLongKernels) {
  // A 103-tap kernel, longer than the window: each window, and each tile of
  // a tiled window, matches the full convolution bit for bit.
  const cvec x = window_vec(512, 104);
  const cvec h = window_vec(103, 105);
  const cvec full = convolve_same(x, h);
  const cvec ranged = same_window_in_zeros(x, h, 100, 200);
  for (std::size_t i = 100; i < 200; ++i) ASSERT_EQ(ranged[i], full[i]) << i;
  cvec tile(48);
  for (std::size_t lo = 0; lo + tile.size() <= x.size(); lo += tile.size()) {
    convolve_same_window(x, h, lo, tile);
    for (std::size_t j = 0; j < tile.size(); ++j)
      ASSERT_EQ(tile[j], full[lo + j]) << lo + j;
  }
}

TEST(FirTest, ConvolveSameRangeIntoReusesWarmBuffer) {
  const cvec x = window_vec(256, 106);
  const cvec h = window_vec(6, 107);
  const cvec full = convolve_same(x, h);
  workspace_stats stats;
  cvec out;
  convolve_same_range_into(x, h, 30, 90, out, &stats);
  ASSERT_EQ(out.size(), x.size());
  for (std::size_t i = 30; i < 90; ++i) ASSERT_EQ(out[i], full[i]) << i;
  EXPECT_GT(stats.bytes_allocated, 0u);
  const std::uint64_t allocated_after_first = stats.bytes_allocated;
  for (int rep = 0; rep < 3; ++rep) {
    convolve_same_range_into(x, h, 30, 90, out, &stats);
    for (std::size_t i = 30; i < 90; ++i) ASSERT_EQ(out[i], full[i]) << i;
  }
  EXPECT_EQ(stats.bytes_allocated, allocated_after_first);
  EXPECT_GT(stats.bytes_reused, 0u);
}

TEST(FirTest, ConvolveSameIntoMatchesConvolveSame) {
  const cvec x = window_vec(200, 108);
  const cvec h = window_vec(7, 109);
  const cvec full = convolve_same(x, h);
  cvec out(17, cplx{3.0, -4.0});  // dirty and wrongly sized
  convolve_same_into(x, h, out);
  ASSERT_EQ(out.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) ASSERT_EQ(out[i], full[i]) << i;
}

TEST(FirTest, ConvolveSameSubtractIntoMatchesMaterializedSubtract) {
  for (const std::size_t taps : {std::size_t{6}, std::size_t{99}}) {
    const cvec x = window_vec(400, 110 + taps);
    const cvec rx = window_vec(420, 111 + taps);  // longer rx: plain tail copy
    const cvec h = window_vec(taps, 112 + taps);
    const cvec conv = convolve_same(x, h);
    cvec out;
    convolve_same_subtract_into(rx, x, h, out);
    ASSERT_EQ(out.size(), rx.size());
    for (std::size_t i = 0; i < rx.size(); ++i) {
      const cplx want = i < x.size() ? rx[i] - conv[i] : rx[i];
      ASSERT_EQ(out[i], want) << "taps " << taps << " sample " << i;
    }
  }
}

}  // namespace
}  // namespace backfi::dsp
