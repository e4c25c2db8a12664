#include "dsp/fft_plan.h"

#include <gtest/gtest.h>
#include <stdexcept>

#include "dsp/math_util.h"
#include "dsp/rng.h"

namespace backfi::dsp {
namespace {

cvec random_sequence(std::size_t n, std::uint64_t seed) {
  rng gen(seed);
  cvec x(n);
  for (auto& v : x) v = gen.complex_gaussian();
  return x;
}

double max_relative_error(const cvec& a, const cvec& b) {
  double scale = 0.0;
  for (const cplx& v : a) scale = std::max(scale, std::abs(v));
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]) / std::max(scale, 1e-300));
  return worst;
}

// The original per-call transform, kept here as the independent reference
// the plans must reproduce bit for bit: bit-reversal by the incremental
// reversed counter, then radix-2 stages whose twiddles come from the
// per-stage recurrence w *= w_len, in the same butterfly order.
void reference_transform(cvec& data, bool inverse) {
  const std::size_t n = data.size();
  std::size_t j = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (i < j) std::swap(data[i], data[j]);
    std::size_t mask = n >> 1;
    while (j & mask) {
      j ^= mask;
      mask >>= 1;
    }
    j |= mask;
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? two_pi : -two_pi) / static_cast<double>(len);
    const cplx w_len = phasor(angle);
    for (std::size_t start = 0; start < n; start += len) {
      cplx w{1.0, 0.0};
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cplx even = data[start + k];
        const cplx odd = data[start + k + len / 2] * w;
        data[start + k] = even + odd;
        data[start + k + len / 2] = even - odd;
        w *= w_len;
      }
    }
  }
}

void expect_plan_matches_reference(std::size_t n) {
  const cvec base = random_sequence(n, 100 + n);
  for (const bool inverse : {false, true}) {
    cvec expected = base;
    reference_transform(expected, inverse);
    cvec actual = base;
    get_fft_plan(n, inverse ? fft_direction::inverse : fft_direction::forward)
        .execute(actual);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(expected[i].real(), actual[i].real())
          << "n=" << n << " inverse=" << inverse << " i=" << i;
      ASSERT_EQ(expected[i].imag(), actual[i].imag())
          << "n=" << n << " inverse=" << inverse << " i=" << i;
    }
  }
}

TEST(FftPlanTest, BitIdenticalToReferenceUpToCompatLimit) {
  // The simulation's regression anchors depend on this: every size the WiFi
  // PHY uses (<= 64) must reproduce the original transform's doubles.
  for (std::size_t n = 1; n <= 64; n <<= 1) expect_plan_matches_reference(n);
}

TEST(FftPlanTest, BitIdenticalToReferenceAtLongSizes) {
  // One radix-2 kernel serves every size, so long transforms reproduce the
  // original recurrence bitwise too.
  for (std::size_t n = 128; n <= 4096; n <<= 1) expect_plan_matches_reference(n);
}

TEST(FftPlanTest, RoundTripThroughPublicApiAt4096) {
  for (const std::size_t n : {std::size_t{128}, std::size_t{4096}}) {
    const cvec x = random_sequence(n, 17);
    cvec y = x;
    get_fft_plan(n, fft_direction::forward).execute(y);
    get_fft_plan(n, fft_direction::inverse).execute(y);
    const double inv_n = 1.0 / static_cast<double>(n);
    for (cplx& v : y) v *= inv_n;
    EXPECT_LT(max_relative_error(x, y), 1e-10) << "n=" << n;
  }
}

TEST(FftPlanTest, CacheReturnsStableSharedInstances) {
  const fft_plan& a = get_fft_plan(64, fft_direction::forward);
  const fft_plan& b = get_fft_plan(64, fft_direction::forward);
  EXPECT_EQ(&a, &b);
  const fft_plan& inv = get_fft_plan(64, fft_direction::inverse);
  EXPECT_NE(&a, &inv);
  EXPECT_EQ(a.size(), 64u);
  EXPECT_EQ(inv.direction(), fft_direction::inverse);
}

TEST(FftPlanTest, RejectsNonPowerOfTwoSizes) {
  // 48 shares its trailing-zero count with 16; it must not land in (or
  // poison) the 16-point cache slot.
  for (const std::size_t n : {std::size_t{0}, std::size_t{3}, std::size_t{48}}) {
    EXPECT_THROW((void)get_fft_plan(n, fft_direction::forward),
                 std::invalid_argument)
        << "n=" << n;
    EXPECT_THROW(fft_plan(n, fft_direction::inverse), std::invalid_argument)
        << "n=" << n;
  }
  EXPECT_EQ(get_fft_plan(16, fft_direction::forward).size(), 16u);
}

TEST(FftPlanTest, ExecuteRejectsSizeMismatch) {
  const fft_plan& plan = get_fft_plan(16, fft_direction::forward);
  cvec short_buf(8), long_buf(48);
  EXPECT_THROW(plan.execute(short_buf), std::invalid_argument);
  EXPECT_THROW(plan.execute(long_buf), std::invalid_argument);
  cvec exact(16);
  EXPECT_NO_THROW(plan.execute(exact));
}

}  // namespace
}  // namespace backfi::dsp
