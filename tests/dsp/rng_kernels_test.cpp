// Equivalence suite for the bulk draw kernels and the caller's dsp::rng.
//
// A bulk Gaussian fill (dsp/philox.h) must produce bitwise the values an
// element-at-a-time loop over the same key produces — odd lengths, group
// boundary straddles and unaligned sub-spans included — and must leave the
// caller's xoshiro256++ stream exactly one key draw further on. The legacy
// one-draw-per-bit random_bits positions are pinned here as well. The
// pinned trial literals in sim/workspace_test.cpp ride on these.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "dsp/philox.h"
#include "dsp/rng.h"

namespace backfi::dsp {
namespace {

void expect_same_state(rng& a, rng& b) {
  // Equal draws after the compared region: the bulk call consumed exactly
  // what the scalar loop did.
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_EQ(a.gaussian(), b.gaussian());
}

TEST(RngKernelsTest, FillGaussianBitwiseAtOddLengths) {
  // Odd/even lengths, straddles of the kernel's multi-group block, and tiny
  // spans; the scalar loop fills one value per call, so it always takes the
  // single-group path.
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{511},
        std::size_t{512}, std::size_t{513}, std::size_t{1025}}) {
    rng scalar(101), batch(101);
    std::vector<double> want(n), got(n);
    const std::uint64_t key = scalar.next_u64();
    for (std::size_t i = 0; i < n; ++i)
      fill_normals(key, i, std::span(want).subspan(i, 1));
    fill_normals(batch.next_u64(), 0, got);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(want[i]),
                std::bit_cast<std::uint64_t>(got[i]))
          << "n=" << n << " i=" << i;
    expect_same_state(scalar, batch);
  }
}

TEST(RngKernelsTest, FillComplexGaussianUnalignedSubspan) {
  // Add into a misaligned offset of a larger buffer: values and the
  // untouched surroundings must both be exact.
  rng scalar(33), batch(33);
  const cplx fill{-1.0, -2.0};
  std::vector<cplx> buf(64, fill);
  const std::size_t off = 3, n = 37;
  std::vector<cplx> want(n, fill);
  const std::uint64_t key = scalar.next_u64();
  for (std::size_t i = 0; i < n; ++i)
    add_complex_normals(key, i, std::span(want).subspan(i, 1), 1.0);
  add_complex_normals(batch.next_u64(), 0, std::span(buf).subspan(off, n),
                      1.0);
  for (std::size_t i = 0; i < off; ++i) ASSERT_EQ(buf[i], fill);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(want[i], buf[off + i]);
  for (std::size_t i = off + n; i < buf.size(); ++i) ASSERT_EQ(buf[i], fill);
  expect_same_state(scalar, batch);
}

TEST(RngKernelsTest, AddScaledComplexGaussianMatchesScalarAwgnLoop) {
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{17}, std::size_t{512}, std::size_t{777}}) {
    const double amp = 0.037;
    rng scalar(404), batch(404);
    std::vector<cplx> want(n), got(n);
    for (std::size_t i = 0; i < n; ++i)
      want[i] = got[i] = cplx{0.25 * static_cast<double>(i), -0.5};
    const std::uint64_t key = scalar.next_u64();
    for (std::size_t i = 0; i < n; ++i)
      add_complex_normals(key, i, std::span(want).subspan(i, 1), amp);
    add_complex_normals(batch.next_u64(), 0, got, amp);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(want[i].real(), got[i].real()) << "n=" << n << " i=" << i;
      ASSERT_EQ(want[i].imag(), got[i].imag()) << "n=" << n << " i=" << i;
    }
    expect_same_state(scalar, batch);
  }
}

TEST(RngKernelsTest, RandomBitsLegacyStreamPositionsUnchanged) {
  // The legacy method burns one full draw per bit (bit 0 of each draw);
  // pinned tag payloads depend on those positions. Lock the behaviour.
  rng gen(31), ref(31);
  const auto bits = gen.random_bits(100);
  ASSERT_EQ(bits.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_EQ(bits[i], static_cast<std::uint8_t>(ref.next_u64() & 1u));
  EXPECT_EQ(gen.next_u64(), ref.next_u64());
}

}  // namespace
}  // namespace backfi::dsp
