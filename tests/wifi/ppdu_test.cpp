#include "wifi/ppdu.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "dsp/rng.h"
#include "dsp/vec_ops.h"
#include "wifi/ofdm.h"
#include "wifi/preamble.h"

namespace backfi::wifi {
namespace {

TEST(PpduTest, SignalInfoBitsLayout) {
  const auto bits = signal_info_bits(wifi_rate::mbps6, 100);
  ASSERT_EQ(bits.size(), 18u);
  // RATE for 6 Mbps = 1101.
  EXPECT_EQ(bits[0], 1);
  EXPECT_EQ(bits[1], 1);
  EXPECT_EQ(bits[2], 0);
  EXPECT_EQ(bits[3], 1);
  EXPECT_EQ(bits[4], 0);  // reserved
  // LENGTH = 100 = 0b000001100100, LSB first: 0,0,1,0,0,1,1,0,0,0,0,0
  const int expected_len[] = {0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0};
  for (int i = 0; i < 12; ++i) EXPECT_EQ(bits[5 + i], expected_len[i]) << i;
  // Even parity over all 18 bits.
  int ones = 0;
  for (auto b : bits) ones += b;
  EXPECT_EQ(ones % 2, 0);
}

TEST(PpduTest, SignalInfoBitsRejectsBadLength) {
  EXPECT_THROW(signal_info_bits(wifi_rate::mbps6, 0), std::invalid_argument);
  EXPECT_THROW(signal_info_bits(wifi_rate::mbps6, 4096), std::invalid_argument);
}

TEST(PpduTest, SignalSymbolIs80Samples) {
  EXPECT_EQ(signal_symbol(wifi_rate::mbps24, 64).size(), symbol_samples);
}

TEST(PpduTest, TransmitProducesExpectedLength) {
  for (const auto& p : all_rates()) {
    const std::size_t len = 123;
    const tx_ppdu ppdu = random_ppdu(len, {.rate = p.rate}, 42);
    EXPECT_EQ(ppdu.samples.size(), ppdu_length_samples(len, p.rate)) << p.name;
    EXPECT_EQ(ppdu.n_data_symbols, data_symbol_count(len, p.rate)) << p.name;
    EXPECT_EQ(ppdu.data_start, preamble_samples + symbol_samples) << p.name;
  }
}

TEST(PpduTest, TransmitStartsWithLegacyPreamble) {
  const tx_ppdu ppdu = random_ppdu(50, {}, 7);
  const cvec pre = legacy_preamble();
  for (std::size_t i = 0; i < pre.size(); ++i)
    EXPECT_NEAR(std::abs(ppdu.samples[i] - pre[i]), 0.0, 1e-12) << i;
}

TEST(PpduTest, MeanPowerNearUnity) {
  const tx_ppdu ppdu = random_ppdu(500, {.rate = wifi_rate::mbps54}, 9);
  EXPECT_NEAR(dsp::mean_power(ppdu.samples), 1.0, 0.1);
}

TEST(PpduTest, TransmitRejectsBadPsduSize) {
  const std::vector<std::uint8_t> empty;
  EXPECT_THROW(transmit(empty), std::invalid_argument);
  const std::vector<std::uint8_t> huge(5000, 0);
  EXPECT_THROW(transmit(huge), std::invalid_argument);
}

TEST(PpduTest, DifferentPayloadsGiveDifferentWaveforms) {
  const tx_ppdu a = random_ppdu(100, {}, 1);
  const tx_ppdu b = random_ppdu(100, {}, 2);
  double diff = 0.0;
  for (std::size_t i = a.data_start; i < a.samples.size(); ++i)
    diff += std::abs(a.samples[i] - b.samples[i]);
  EXPECT_GT(diff, 1.0);
}

TEST(PpduTest, RangedModulateDataMatchesFullBuildOnSelectedSymbols) {
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  dsp::rng gen(21);
  std::vector<std::uint8_t> psdu(700);
  gen.uniform_bytes(psdu);
  for (const rate_params& p : all_rates()) {
    const data_plan plan = make_data_plan(p.rate, psdu.size());
    const std::size_t n = plan.n_data_symbols;
    ASSERT_GE(n, 6u) << p.name;
    cvec full(n * symbol_samples);
    ASSERT_EQ(modulate_data(plan, psdu, full), n) << p.name;

    using ranges = std::vector<dsp::sample_range>;
    const std::pair<const char*, ranges> cases[] = {
        {"empty", {}},
        {"first only", {{0, 1}}},
        {"last only", {{n - 1, n}}},
        {"disjoint", {{n - 3, n - 1}, {1, 3}}},
        {"all", {{0, n}}},
    };
    for (const auto& [name, symbols] : cases) {
      std::vector<std::uint8_t> selected(n, 0);
      for (const dsp::sample_range& r : symbols)
        for (std::size_t s = r.begin; s < r.end; ++s) selected[s] = 1;
      cvec out(full.size(), cplx{nan, nan});
      const std::size_t written = modulate_data(plan, psdu, out, symbols);
      std::size_t expected_written = 0;
      for (std::size_t s = 0; s < n; ++s) {
        expected_written += selected[s];
        for (std::size_t i = s * symbol_samples; i < (s + 1) * symbol_samples;
             ++i) {
          if (selected[s]) {
            ASSERT_EQ(out[i], full[i]) << p.name << ", " << name << " @" << i;
          } else {
            ASSERT_TRUE(std::isnan(out[i].real()) && std::isnan(out[i].imag()))
                << p.name << ", " << name << " @" << i;
          }
        }
      }
      EXPECT_EQ(written, expected_written) << p.name << ", " << name;
    }
  }
}

}  // namespace
}  // namespace backfi::wifi
