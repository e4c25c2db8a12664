#include <gtest/gtest.h>

#include "dsp/fft_plan.h"

#include "dsp/math_util.h"
#include "dsp/rng.h"
#include "dsp/vec_ops.h"

namespace backfi::dsp {
namespace {

// Out-of-place transforms through the shared plans; the inverse is 1/N
// normalized.
cvec fft(const cvec& input) {
  cvec out = input;
  get_fft_plan(out.size(), fft_direction::forward).execute(out);
  return out;
}

cvec ifft(const cvec& input) {
  cvec out = input;
  get_fft_plan(out.size(), fft_direction::inverse).execute(out);
  const double inv_n = 1.0 / static_cast<double>(out.size());
  for (cplx& v : out) v *= inv_n;
  return out;
}

TEST(FftTest, IsPowerOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(48));
}

TEST(FftTest, DeltaTransformsToFlatSpectrum) {
  cvec x(64, cplx{0.0, 0.0});
  x[0] = 1.0;
  const cvec spectrum = fft(x);
  for (const cplx& v : spectrum) EXPECT_NEAR(std::abs(v - cplx(1.0, 0.0)), 0.0, 1e-12);
}

TEST(FftTest, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  const std::size_t k = 5;
  cvec x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = phasor(two_pi * static_cast<double>(k * i) / static_cast<double>(n));
  const cvec spectrum = fft(x);
  for (std::size_t bin = 0; bin < n; ++bin) {
    if (bin == k) {
      EXPECT_NEAR(std::abs(spectrum[bin]), static_cast<double>(n), 1e-9);
    } else {
      EXPECT_NEAR(std::abs(spectrum[bin]), 0.0, 1e-9);
    }
  }
}

TEST(FftTest, RoundTripIdentity) {
  rng gen(3);
  cvec x(256);
  for (auto& v : x) v = gen.complex_gaussian();
  const cvec y = ifft(fft(x));
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-10);
}

TEST(FftTest, ParsevalEnergyConservation) {
  rng gen(4);
  cvec x(128);
  for (auto& v : x) v = gen.complex_gaussian();
  const cvec spectrum = fft(x);
  EXPECT_NEAR(energy(spectrum), energy(x) * static_cast<double>(x.size()),
              1e-8 * energy(x) * x.size());
}

TEST(FftTest, LinearityHolds) {
  rng gen(5);
  cvec a(64), b(64);
  for (auto& v : a) v = gen.complex_gaussian();
  for (auto& v : b) v = gen.complex_gaussian();
  cvec sum(64);
  for (std::size_t i = 0; i < 64; ++i) sum[i] = 2.0 * a[i] + cplx{0.0, 3.0} * b[i];
  const cvec fa = fft(a), fb = fft(b), fsum = fft(sum);
  for (std::size_t i = 0; i < 64; ++i) {
    const cplx expected = 2.0 * fa[i] + cplx{0.0, 3.0} * fb[i];
    EXPECT_NEAR(std::abs(fsum[i] - expected), 0.0, 1e-9);
  }
}

TEST(FftTest, SizeOneIsIdentity) {
  cvec x = {cplx{2.0, -1.0}};
  const cvec y = fft(x);
  EXPECT_NEAR(std::abs(y[0] - x[0]), 0.0, 1e-15);
}

TEST(FftTest, ConvolutionTheorem) {
  // Circular convolution in time == multiplication in frequency.
  rng gen(6);
  const std::size_t n = 32;
  cvec x(n), h(n, cplx{0.0, 0.0});
  for (auto& v : x) v = gen.complex_gaussian();
  for (std::size_t i = 0; i < 4; ++i) h[i] = gen.complex_gaussian();

  // Direct circular convolution.
  cvec direct(n, cplx{0.0, 0.0});
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < n; ++k) direct[i] += x[k] * h[(i + n - k) % n];

  cvec fx = fft(x), fh = fft(h);
  cvec product(n);
  for (std::size_t i = 0; i < n; ++i) product[i] = fx[i] * fh[i];
  const cvec via_fft = ifft(product);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(via_fft[i] - direct[i]), 0.0, 1e-9);
}

}  // namespace
}  // namespace backfi::dsp
