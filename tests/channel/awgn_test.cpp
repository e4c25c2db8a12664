#include "channel/awgn.h"

#include <gtest/gtest.h>

#include <cmath>

#include "dsp/math_util.h"
#include "dsp/philox.h"
#include "dsp/vec_ops.h"

namespace backfi::channel {
namespace {

TEST(AwgnTest, AddedNoisePowerMatches) {
  dsp::rng gen(1);
  cvec x(100000, cplx{0.0, 0.0});
  add_awgn(x, 0.04, gen);
  EXPECT_NEAR(dsp::mean_power(x), 0.04, 0.002);
}

TEST(AwgnTest, ZeroPowerIsNoOp) {
  dsp::rng gen(2);
  cvec x(100, cplx{1.0, 1.0});
  add_awgn(x, 0.0, gen);
  for (const auto& v : x) EXPECT_EQ(v, cplx(1.0, 1.0));
}

// Pins the stream-position contract from awgn.h: noise_power <= 0 returns
// without consuming a single draw, so later draws from the generator are
// exactly what they would be had add_awgn never been called. Silence-gap
// simulation relies on this to keep trial streams aligned.
TEST(AwgnTest, ZeroOrNegativePowerLeavesStreamUntouched) {
  dsp::rng touched(7);
  dsp::rng untouched(7);
  cvec x(64, cplx{1.0, -1.0});
  add_awgn(x, 0.0, touched);
  add_awgn(x, -1.0, touched);
  cvec empty;
  add_awgn(empty, 0.25, touched);  // empty span: also zero draws
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(touched.next_u64(), untouched.next_u64());
  }
  EXPECT_EQ(touched.gaussian(), untouched.gaussian());
}

// A positive-power call takes exactly one draw (the generator key) however
// long the span is, and the noise it adds is complex normal i of that key
// at sample i — so the same key reproduces it from any offset.
TEST(AwgnTest, PositivePowerTakesOneKeyDraw) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{257},
                              std::size_t{27440}}) {
    dsp::rng gen(0xA31Fu), ref(0xA31Fu);
    cvec x(n, cplx{0.5, -0.25});
    add_awgn(x, 0.04, gen);
    const std::uint64_t key = ref.next_u64();
    EXPECT_EQ(gen.next_u64(), ref.next_u64()) << "n=" << n;

    cvec expected(n, cplx{0.5, -0.25});
    dsp::add_complex_normals(key, 0, expected, std::sqrt(0.04));
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(x[i], expected[i]) << i;
  }
}

TEST(AwgnTest, NoiseIsAdditive) {
  dsp::rng gen_a(3), gen_b(3);
  cvec zeros(64, cplx{0.0, 0.0});
  cvec signal(64, cplx{2.0, -1.0});
  add_awgn(zeros, 0.1, gen_a);
  add_awgn(signal, 0.1, gen_b);
  for (std::size_t i = 0; i < 64; ++i)
    EXPECT_NEAR(std::abs((signal[i] - cplx(2.0, -1.0)) - zeros[i]), 0.0, 1e-12);
}

TEST(AwgnTest, NormalizedNoisePowerFor20dBmTransmitter) {
  // Noise floor -95 dBm vs 20 dBm carrier -> -115 dB relative.
  const double p = normalized_noise_power(20.0, 20e6, 6.0);
  EXPECT_NEAR(dsp::to_db(p), -115.0, 0.3);
}

TEST(AwgnTest, NormalizedNoiseScalesWithTxPower) {
  const double p20 = normalized_noise_power(20.0, 20e6, 6.0);
  const double p30 = normalized_noise_power(30.0, 20e6, 6.0);
  EXPECT_NEAR(p20 / p30, 10.0, 1e-9);
}

}  // namespace
}  // namespace backfi::channel
