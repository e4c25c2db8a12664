#include "phy/convolutional.h"

#include <gtest/gtest.h>
#include <algorithm>
#include <array>
#include <limits>

#include "dsp/rng.h"

namespace backfi::phy {
namespace {

TEST(ConvolutionalTest, RateValuesAndNames) {
  EXPECT_DOUBLE_EQ(code_rate_value(code_rate::half), 0.5);
  EXPECT_NEAR(code_rate_value(code_rate::two_thirds), 2.0 / 3.0, 1e-15);
  EXPECT_DOUBLE_EQ(code_rate_value(code_rate::three_quarters), 0.75);
  EXPECT_STREQ(code_rate_name(code_rate::half), "1/2");
}

TEST(ConvolutionalTest, EncodeKnownVector) {
  // 802.11 K=7 (133,171) encoder, all-zero input stays all-zero.
  const bitvec zeros(8, 0);
  const bitvec coded = conv_encode(zeros);
  ASSERT_EQ(coded.size(), 2 * (8 + conv_tail_bits));
  for (auto b : coded) EXPECT_EQ(b, 0);
}

TEST(ConvolutionalTest, SingleOneProducesImpulseResponse) {
  // Input 1 followed by zeros emits the generator taps interleaved:
  // g0 = 133o = 1011011, g1 = 171o = 1111001 (MSB = current input bit).
  const bitvec one = {1};
  const bitvec coded = conv_encode(one);
  // First 7 steps cover the constraint length (1 info bit + 6 tail).
  const bitvec expected_a = {1, 0, 1, 1, 0, 1, 1};  // g0 taps, MSB first
  const bitvec expected_b = {1, 1, 1, 1, 0, 0, 1};  // g1 taps
  ASSERT_EQ(coded.size(), 14u);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(coded[2 * i], expected_a[i]) << "A output step " << i;
    EXPECT_EQ(coded[2 * i + 1], expected_b[i]) << "B output step " << i;
  }
}

TEST(ConvolutionalTest, PackedEncoderMatchesBitEncoder) {
  // Every length class: whole bytes, a partial final byte, and lengths
  // whose tail spills into a further output word.
  dsp::rng gen(17);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                              std::size_t{26}, std::size_t{58}, std::size_t{1001}}) {
    std::vector<std::uint8_t> packed((n + 7) / 8 + 1);
    for (auto& b : packed) b = static_cast<std::uint8_t>(gen.uniform_int(256));
    bitvec bits(n);
    for (std::size_t t = 0; t < n; ++t) bits[t] = (packed[t / 8] >> (t % 8)) & 1u;
    const bitvec expected = conv_encode(bits);

    std::vector<std::uint64_t> words(conv_packed_words(n));
    conv_encode_packed(packed, n, words);
    ASSERT_GE(64 * words.size(), expected.size()) << n;
    for (std::size_t m = 0; m < expected.size(); ++m)
      ASSERT_EQ((words[m / 64] >> (m % 64)) & 1u, expected[m]) << "n=" << n << " m=" << m;
  }
}

TEST(ConvolutionalTest, HardDecodeNoErrorsRoundTrip) {
  dsp::rng gen(2);
  const bitvec info = gen.random_bits(200);
  const bitvec coded = conv_encode(info);
  EXPECT_EQ(viterbi_decode_hard(coded, info.size()), info);
}

TEST(ConvolutionalTest, CorrectsScatteredBitErrors) {
  dsp::rng gen(3);
  const bitvec info = gen.random_bits(300);
  bitvec coded = conv_encode(info);
  // Flip well-separated bits; K=7 free distance 10 corrects these easily.
  for (std::size_t pos = 10; pos + 40 < coded.size(); pos += 40) coded[pos] ^= 1u;
  EXPECT_EQ(viterbi_decode_hard(coded, info.size()), info);
}

TEST(ConvolutionalTest, SoftDecisionsOutperformErasures) {
  dsp::rng gen(4);
  const bitvec info = gen.random_bits(100);
  const bitvec coded = conv_encode(info);
  std::vector<double> soft(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i)
    soft[i] = coded[i] ? -1.0 : 1.0;
  // Zero out (erase) a long run; decoder should still recover from code
  // memory as long as the run is not catastrophic.
  for (std::size_t i = 50; i < 58; ++i) soft[i] = 0.0;
  EXPECT_EQ(viterbi_decode(soft, info.size()), info);
}

TEST(ConvolutionalTest, PunctureLengthsMatchCodedLength) {
  dsp::rng gen(5);
  for (const code_rate rate :
       {code_rate::half, code_rate::two_thirds, code_rate::three_quarters}) {
    const bitvec info = gen.random_bits(120);
    const bitvec mother = conv_encode(info);
    const bitvec punctured = puncture(mother, rate);
    EXPECT_EQ(punctured.size(), coded_length(info.size(), rate))
        << code_rate_name(rate);
  }
}

TEST(ConvolutionalTest, PuncturedRoundTripAllRates) {
  dsp::rng gen(6);
  for (const code_rate rate :
       {code_rate::half, code_rate::two_thirds, code_rate::three_quarters}) {
    const bitvec info = gen.random_bits(240);
    const bitvec mother = conv_encode(info);
    const bitvec punctured = puncture(mother, rate);
    std::vector<double> soft(punctured.size());
    for (std::size_t i = 0; i < punctured.size(); ++i)
      soft[i] = punctured[i] ? -1.0 : 1.0;
    const auto depunct = depuncture(soft, rate, mother.size());
    ASSERT_EQ(depunct.size(), mother.size());
    EXPECT_EQ(viterbi_decode(depunct, info.size()), info)
        << code_rate_name(rate);
  }
}

TEST(ConvolutionalTest, DepunctureValidatesLength) {
  const std::vector<double> soft(10, 1.0);
  EXPECT_THROW(depuncture(soft, code_rate::two_thirds, 100), std::invalid_argument);
  EXPECT_THROW(depuncture(soft, code_rate::two_thirds, 4), std::invalid_argument);
}

TEST(ConvolutionalTest, DecodeRejectsShortStream) {
  const std::vector<double> soft(10, 1.0);
  EXPECT_THROW(viterbi_decode(soft, 100), std::invalid_argument);
}

class ConvolutionalNoiseTest : public ::testing::TestWithParam<double> {};

TEST_P(ConvolutionalNoiseTest, SoftDecodingSurvivesGaussianNoise) {
  // Property: at Es/N0 >= 3 dB-ish the K=7 code decodes 500 info bits
  // with zero errors w.h.p. under soft decoding.
  const double noise_sigma = GetParam();
  dsp::rng gen(static_cast<std::uint64_t>(noise_sigma * 1000));
  const bitvec info = gen.random_bits(500);
  const bitvec coded = conv_encode(info);
  std::vector<double> soft(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    const double tx = coded[i] ? -1.0 : 1.0;
    soft[i] = tx + noise_sigma * gen.gaussian();
  }
  const bitvec decoded = viterbi_decode(soft, info.size());
  EXPECT_EQ(hamming_distance(decoded, info), 0u) << "sigma=" << noise_sigma;
}

INSTANTIATE_TEST_SUITE_P(NoiseSweep, ConvolutionalNoiseTest,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7));


/// The pre-restructure scatter-form Viterbi, kept verbatim as a reference:
/// the production decoder now runs a branchless gather over next states,
/// which must stay bit-identical in decoded bits and final path metric.
bitvec reference_viterbi(std::span<const double> soft, std::size_t n_info,
                         double* final_metric) {
  constexpr int kMemory = 6;
  constexpr int kStates = 1 << kMemory;
  constexpr std::uint32_t kG0 = 0b1011011;
  constexpr std::uint32_t kG1 = 0b1111001;
  const auto parity = [](std::uint32_t v) {
    v ^= v >> 16;
    v ^= v >> 8;
    v ^= v >> 4;
    v ^= v >> 2;
    v ^= v >> 1;
    return static_cast<std::uint8_t>(v & 1u);
  };
  std::array<std::array<std::uint8_t, 2>, kStates> next_state, out0, out1;
  for (int s = 0; s < kStates; ++s)
    for (int b = 0; b < 2; ++b) {
      const std::uint32_t reg = (static_cast<std::uint32_t>(b) << kMemory) |
                                static_cast<std::uint32_t>(s);
      out0[s][b] = parity(reg & kG0);
      out1[s][b] = parity(reg & kG1);
      next_state[s][b] = static_cast<std::uint8_t>(reg >> 1);
    }

  const std::size_t n_steps = n_info + conv_tail_bits;
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  std::vector<double> metric(kStates, kNegInf);
  metric[0] = 0.0;
  std::vector<std::uint8_t> survivor_input(n_steps * kStates);
  std::vector<std::uint8_t> survivor_prev(n_steps * kStates);
  std::vector<double> next_metric(kStates);
  for (std::size_t step = 0; step < n_steps; ++step) {
    const double s0 = soft[2 * step];
    const double s1 = soft[2 * step + 1];
    std::fill(next_metric.begin(), next_metric.end(), kNegInf);
    const int max_input = (step < n_info) ? 2 : 1;
    for (int s = 0; s < kStates; ++s) {
      if (metric[s] == kNegInf) continue;
      for (int b = 0; b < max_input; ++b) {
        const double branch =
            (out0[s][b] ? -s0 : s0) + (out1[s][b] ? -s1 : s1);
        const int ns = next_state[s][b];
        const double cand = metric[s] + branch;
        if (cand > next_metric[ns]) {
          next_metric[ns] = cand;
          survivor_input[step * kStates + ns] = static_cast<std::uint8_t>(b);
          survivor_prev[step * kStates + ns] = static_cast<std::uint8_t>(s);
        }
      }
    }
    metric.swap(next_metric);
  }
  if (final_metric) *final_metric = metric[0];
  bitvec decoded(n_steps);
  int state = 0;
  for (std::size_t step = n_steps; step-- > 0;) {
    decoded[step] = survivor_input[step * kStates + state];
    state = survivor_prev[step * kStates + state];
  }
  decoded.resize(n_info);
  return decoded;
}

TEST(ConvolutionalTest, ViterbiMatchesReferenceScatterImplementation) {
  dsp::rng gen(7);
  for (const std::size_t n_info :
       {std::size_t{8}, std::size_t{40}, std::size_t{96}, std::size_t{632}}) {
    for (int rep = 0; rep < 3; ++rep) {
      bitvec info(n_info);
      for (auto& b : info) b = static_cast<std::uint8_t>(gen.uniform_int(2));
      const bitvec mother = conv_encode(info);
      std::vector<double> soft(mother.size());
      for (std::size_t i = 0; i < soft.size(); ++i)
        soft[i] = ((mother[i] & 1u) ? -1.0 : 1.0) + 0.6 * gen.gaussian();
      double ref_metric = 0.0, got_metric = 0.0;
      const bitvec ref = reference_viterbi(soft, n_info, &ref_metric);
      const bitvec got = viterbi_decode(soft, n_info, &got_metric);
      ASSERT_EQ(got, ref) << "n_info " << n_info << " rep " << rep;
      ASSERT_EQ(got_metric, ref_metric) << "n_info " << n_info << " rep " << rep;
    }
  }
}

TEST(ConvolutionalTest, ViterbiMatchesReferenceWithErasures) {
  // Depunctured streams interleave true soft values with 0.0 erasures; the
  // branchless select must break the resulting exact metric ties the same
  // way the scatter loop did (first writer wins).
  dsp::rng gen(8);
  const std::size_t n_info = 120;
  bitvec info(n_info);
  for (auto& b : info) b = static_cast<std::uint8_t>(gen.uniform_int(2));
  const bitvec mother = conv_encode(info);
  const bitvec sent = puncture(mother, code_rate::three_quarters);
  std::vector<double> soft_sent(sent.size());
  for (std::size_t i = 0; i < soft_sent.size(); ++i)
    soft_sent[i] = ((sent[i] & 1u) ? -1.0 : 1.0) + 0.4 * gen.gaussian();
  const std::vector<double> soft =
      depuncture(soft_sent, code_rate::three_quarters, mother.size());
  double ref_metric = 0.0, got_metric = 0.0;
  const bitvec ref = reference_viterbi(soft, n_info, &ref_metric);
  const bitvec got = viterbi_decode(soft, n_info, &got_metric);
  ASSERT_EQ(got, ref);
  ASSERT_EQ(got_metric, ref_metric);
}

TEST(ConvolutionalTest, AllErasureBlockDecodesDeterministically) {
  // A burst that wipes the whole coded block leaves the decoder nothing
  // but the trellis structure: every surviving path has metric 0 and the
  // tie-break must resolve identically to the scatter reference, run
  // after run (the erasure-coding layer above depends on the PHY not
  // turning dead air into nondeterminism).
  const std::size_t n_info = 64;
  const std::vector<double> erased(2 * (n_info + conv_tail_bits), 0.0);
  double ref_metric = 1.0, got_metric = 2.0;
  const bitvec ref = reference_viterbi(erased, n_info, &ref_metric);
  const bitvec got = viterbi_decode(erased, n_info, &got_metric);
  ASSERT_EQ(got, ref);
  ASSERT_EQ(got_metric, ref_metric);
  EXPECT_EQ(got_metric, 0.0);
  const bitvec again = viterbi_decode(erased, n_info, nullptr);
  EXPECT_EQ(again, got);

  // Same all-erasure property arriving through the depuncture path.
  const bitvec mother = conv_encode(bitvec(n_info, 0));
  const std::vector<double> sent(
      coded_length(n_info, code_rate::two_thirds), 0.0);
  const auto depunct = depuncture(sent, code_rate::two_thirds, mother.size());
  ASSERT_EQ(depunct.size(), mother.size());
  for (const double v : depunct) EXPECT_EQ(v, 0.0);
  EXPECT_EQ(viterbi_decode(depunct, n_info), got);
}

TEST(ConvolutionalTest, AlternatingErasuresMatchScatterReference) {
  // Every second mother position erased — denser than any 802.11 puncture
  // pattern, the regime a striped coded symbol stream hits when alternate
  // packets die. Exact metric ties abound; bits and path metric must stay
  // bit-identical to the reference.
  dsp::rng gen(9);
  const std::size_t n_info = 160;
  bitvec info(n_info);
  for (auto& b : info) b = static_cast<std::uint8_t>(gen.uniform_int(2));
  const bitvec mother = conv_encode(info);
  std::vector<double> soft(mother.size());
  for (std::size_t i = 0; i < soft.size(); ++i)
    soft[i] = (i % 2 == 1) ? 0.0
                           : ((mother[i] & 1u) ? -1.0 : 1.0) +
                                 0.3 * gen.gaussian();
  double ref_metric = 0.0, got_metric = 0.0;
  const bitvec ref = reference_viterbi(soft, n_info, &ref_metric);
  const bitvec got = viterbi_decode(soft, n_info, &got_metric);
  ASSERT_EQ(got, ref);
  ASSERT_EQ(got_metric, ref_metric);

  // A milder stripe (every 4th position erased, clean elsewhere) is within
  // the K=7 code's power: the info must round-trip exactly.
  std::vector<double> mild(mother.size());
  for (std::size_t i = 0; i < mild.size(); ++i)
    mild[i] = (i % 4 == 3) ? 0.0 : ((mother[i] & 1u) ? -1.0 : 1.0);
  EXPECT_EQ(viterbi_decode(mild, n_info), info);
}

TEST(ConvolutionalTest, QuantizedMetricsTieDenselyAndStillMatchReference) {
  // Soft values quantized to {-1, 0, +1} make exact path-metric ties the
  // common case rather than the exception at every trellis step — the
  // densest stress on the ACS select's first-writer-wins tie break (now a
  // vectorized compare in viterbi_kernels.cpp).
  dsp::rng gen(11);
  for (int rep = 0; rep < 5; ++rep) {
    const std::size_t n_info = 200;
    bitvec info(n_info);
    for (auto& b : info) b = static_cast<std::uint8_t>(gen.uniform_int(2));
    const bitvec mother = conv_encode(info);
    std::vector<double> soft(mother.size());
    for (std::size_t i = 0; i < soft.size(); ++i)
      soft[i] = static_cast<double>(
          static_cast<int>(gen.uniform_int(3)) - 1);
    double ref_metric = 0.0, got_metric = 0.0;
    const bitvec ref = reference_viterbi(soft, n_info, &ref_metric);
    const bitvec got = viterbi_decode(soft, n_info, &got_metric);
    ASSERT_EQ(got, ref) << "rep " << rep;
    ASSERT_EQ(got_metric, ref_metric) << "rep " << rep;
  }
}

TEST(ConvolutionalTest, DepunctureIntoMatchesAllocatingForm) {
  dsp::rng gen(12);
  for (const code_rate rate :
       {code_rate::half, code_rate::two_thirds, code_rate::three_quarters}) {
    const std::size_t mother_length = 2 * (60 + conv_tail_bits);
    const std::size_t kept = coded_length(60, rate);
    std::vector<double> soft(kept);
    for (auto& s : soft) s = gen.gaussian();
    const auto expected = depuncture(soft, rate, mother_length);
    std::vector<double> got(7, -123.0);  // dirty, wrong-sized warm buffer
    depuncture_into(soft, rate, mother_length, got);
    ASSERT_EQ(got, expected);
    // Length validation still throws through the _into spelling.
    std::vector<double> short_soft(soft.begin(), soft.end() - 1);
    EXPECT_THROW(depuncture_into(short_soft, rate, mother_length, got),
                 std::invalid_argument);
  }
}

TEST(ConvolutionalTest, NegInfMetricsPropagateThroughErasureRuns) {
  // Unreachable trellis states carry -inf path metrics; adding huge branch
  // magnitudes to them must keep them -inf (never NaN, never a winner).
  // Near-certain symbols (1e300) scattered through long erasure runs push
  // the arithmetic to the edge where a mishandled -inf would first show:
  // the gather decoder must still match the scatter reference exactly.
  dsp::rng gen(10);
  const std::size_t n_info = 96;
  bitvec info(n_info);
  for (auto& b : info) b = static_cast<std::uint8_t>(gen.uniform_int(2));
  const bitvec mother = conv_encode(info);
  std::vector<double> soft(mother.size(), 0.0);
  for (std::size_t i = 0; i < soft.size(); i += 7)
    soft[i] = (mother[i] & 1u) ? -1e300 : 1e300;
  double ref_metric = 0.0, got_metric = 0.0;
  const bitvec ref = reference_viterbi(soft, n_info, &ref_metric);
  const bitvec got = viterbi_decode(soft, n_info, &got_metric);
  ASSERT_EQ(got, ref);
  ASSERT_EQ(got_metric, ref_metric);
  // The certainty agreed with the true codeword, so the winning path
  // matched every certain position: a positive, finite metric.
  EXPECT_TRUE(std::isfinite(got_metric));
  EXPECT_GT(got_metric, 0.0);
}

}  // namespace
}  // namespace backfi::phy
