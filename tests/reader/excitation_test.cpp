#include "reader/excitation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "dsp/vec_ops.h"
#include "phy/prbs.h"
#include "wifi/ofdm.h"

namespace backfi::reader {
namespace {

TEST(ExcitationTest, LayoutMatchesConfig) {
  const excitation_config cfg{.tag_id = 3, .wake_bits = 16, .ppdu_bytes = 500};
  const excitation ex = build_excitation(cfg);
  EXPECT_EQ(ex.wake_end, 16u * 20u);
  EXPECT_EQ(ex.ppdu_start, ex.wake_end);
  EXPECT_EQ(ex.samples.size(), excitation_length(cfg));
  EXPECT_EQ(ex.wake_preamble, phy::wake_preamble(3, 16));
}

TEST(ExcitationTest, WakeSectionIsOokOfPreamble) {
  const excitation ex = build_excitation({.tag_id = 5});
  for (std::size_t b = 0; b < ex.wake_preamble.size(); ++b) {
    for (std::size_t i = 0; i < 20; ++i) {
      const cplx v = ex.samples[b * 20 + i];
      if (ex.wake_preamble[b]) {
        EXPECT_NEAR(std::abs(v), 1.0, 1e-12);
      } else {
        EXPECT_NEAR(std::abs(v), 0.0, 1e-12);
      }
    }
  }
}

TEST(ExcitationTest, PpduFollowsWakeSection) {
  // PPDU 0 is stored once, in place: its samples are exactly what
  // wifi::transmit produces for the recorded payload.
  const excitation ex = build_excitation({.tag_id = 1, .ppdu_bytes = 100});
  const wifi::tx_ppdu ref = wifi::transmit(ex.ppdu.payload, {.rate = ex.ppdu.rate});
  EXPECT_TRUE(ex.ppdu.samples.empty());
  EXPECT_EQ(ex.ppdu.data_start, ref.data_start);
  EXPECT_EQ(ex.ppdu.n_data_symbols, ref.n_data_symbols);
  ASSERT_EQ(ex.samples.size(), ex.ppdu_start + ref.samples.size());
  for (std::size_t i = 0; i < ref.samples.size(); ++i)
    ASSERT_EQ(ex.samples[ex.ppdu_start + i], ref.samples[i]) << i;
}

TEST(ExcitationTest, MultiPpduBurstConcatenates) {
  excitation_config cfg{.ppdu_bytes = 200};
  cfg.n_ppdus = 3;
  const excitation ex = build_excitation(cfg);
  EXPECT_EQ(ex.samples.size(),
            16u * 20u + 3u * wifi::ppdu_length_samples(200, cfg.rate));
  // The PPDUs carry different payloads (different seeds).
  const std::size_t ppdu_len = wifi::ppdu_length_samples(200, cfg.rate);
  double diff = 0.0;
  for (std::size_t i = 500; i < ppdu_len; ++i)
    diff += std::abs(ex.samples[ex.ppdu_start + i] -
                     ex.samples[ex.ppdu_start + ppdu_len + i]);
  EXPECT_GT(diff, 1.0);
}

TEST(ExcitationTest, DeterministicForSameConfig) {
  const excitation a = build_excitation({.tag_id = 9, .payload_seed = 7});
  const excitation b = build_excitation({.tag_id = 9, .payload_seed = 7});
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i)
    ASSERT_EQ(a.samples[i], b.samples[i]);
}


TEST(ExcitationTest, BuildIntoMatchesBuildAndReusesBuffers) {
  excitation_config cfg;
  cfg.tag_id = 3;
  cfg.ppdu_bytes = 600;
  cfg.n_ppdus = 2;
  cfg.payload_seed = 9;
  const excitation a = build_excitation(cfg);

  excitation out;
  dsp::workspace_stats stats;
  build_excitation_into(cfg, out, &stats);
  EXPECT_EQ(out.wake_end, a.wake_end);
  EXPECT_EQ(out.ppdu_start, a.ppdu_start);
  EXPECT_EQ(out.wake_preamble, a.wake_preamble);
  ASSERT_EQ(out.samples.size(), a.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i)
    ASSERT_EQ(out.samples[i], a.samples[i]) << i;
  EXPECT_EQ(out.ppdu.data_start, a.ppdu.data_start);
  EXPECT_EQ(out.ppdu.payload, a.ppdu.payload);

  // Same config into the warm buffers: no further tracked allocations.
  const std::uint64_t allocated = stats.bytes_allocated;
  build_excitation_into(cfg, out, &stats);
  EXPECT_EQ(stats.bytes_allocated, allocated);
  for (std::size_t i = 0; i < a.samples.size(); ++i)
    ASSERT_EQ(out.samples[i], a.samples[i]) << i;
}

TEST(ExcitationTest, PrefixCacheRespondsToEveryKeyField) {
  // The cached wake/preamble prefix is keyed on (tag_id, wake_bits, rate,
  // ppdu_bytes): vary each field and check the waveform changes where it
  // must, while a repeated config stays identical (a stale cache hit on a
  // mutated key would reproduce the previous waveform).
  excitation_config base;
  base.ppdu_bytes = 400;
  const excitation ref = build_excitation(base);
  const excitation same = build_excitation(base);
  ASSERT_EQ(ref.samples.size(), same.samples.size());
  for (std::size_t i = 0; i < ref.samples.size(); ++i)
    ASSERT_EQ(ref.samples[i], same.samples[i]) << i;

  excitation_config other_tag = base;
  other_tag.tag_id = base.tag_id + 5;
  const excitation tag_ex = build_excitation(other_tag);
  EXPECT_NE(tag_ex.wake_preamble, ref.wake_preamble);

  excitation_config other_wake = base;
  other_wake.wake_bits = base.wake_bits + 4;
  EXPECT_NE(build_excitation(other_wake).wake_end, ref.wake_end);

  excitation_config other_bytes = base;
  other_bytes.ppdu_bytes = base.ppdu_bytes + 100;
  EXPECT_NE(build_excitation(other_bytes).samples.size(), ref.samples.size());

  excitation_config other_rate = base;
  other_rate.rate = wifi::wifi_rate::mbps12;
  EXPECT_NE(build_excitation(other_rate).samples.size(), ref.samples.size());

  // And the original key still serves the original waveform.
  const excitation again = build_excitation(base);
  ASSERT_EQ(again.samples.size(), ref.samples.size());
  for (std::size_t i = 0; i < ref.samples.size(); ++i)
    ASSERT_EQ(again.samples[i], ref.samples[i]) << i;
}

// A ranged build (prepare + modulate over a few sample ranges) into a
// NaN-poisoned buffer: every DATA symbol overlapping a range, the wake
// pulses and every PPDU prefix equal the full build; every other DATA
// symbol stays poisoned; PPDU 0's payload is complete either way.
TEST(ExcitationTest, RangedBuildMatchesFullBuildInsideRanges) {
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  using ranges = std::vector<dsp::sample_range>;
  for (const std::size_t n_ppdus : {1u, 4u}) {
    excitation_config cfg;
    cfg.tag_id = 2;
    cfg.ppdu_bytes = 600;
    cfg.payload_seed = 5;
    cfg.n_ppdus = n_ppdus;
    const excitation full = build_excitation(cfg);
    const std::size_t ppdu_len = wifi::ppdu_length_samples(cfg.ppdu_bytes, cfg.rate);
    const std::size_t data0 = full.ppdu_start + full.ppdu.data_start;
    std::vector<ranges> cases = {
        {},                             // nothing but the prefixes
        {{data0 + 250, data0 + 700}},   // partial symbols at both ends
    };
    if (n_ppdus == 4) {
      // PPDU 1's tail into PPDU 2's first DATA symbol, unsorted, with PPDU 0
      // and PPDU 3 untouched.
      const std::size_t p2 = full.ppdu_start + 2 * ppdu_len;
      cases.push_back({{p2 + full.ppdu.data_start, p2 + full.ppdu.data_start + 1},
                       {p2 - 100, p2 + 50}});
    }
    for (const ranges& rs : cases) {
      excitation out;
      out.samples.assign(full.samples.size(), cplx{nan, nan});
      prepare_excitation_into(cfg, out);
      const std::size_t modulated = modulate_excitation_into(cfg, rs, out);
      ASSERT_EQ(out.samples.size(), full.samples.size());
      EXPECT_EQ(out.ppdu.payload, full.ppdu.payload);
      EXPECT_EQ(out.ppdu.payload.size(), cfg.ppdu_bytes);
      EXPECT_EQ(out.wake_end, full.wake_end);
      EXPECT_EQ(out.ppdu_start, full.ppdu_start);
      EXPECT_EQ(out.ppdu.data_start, full.ppdu.data_start);
      EXPECT_EQ(out.ppdu.n_data_symbols, full.ppdu.n_data_symbols);
      for (std::size_t i = 0; i < full.wake_end; ++i)
        ASSERT_EQ(out.samples[i], full.samples[i]) << i;
      std::size_t expected_modulated = 0;
      for (std::size_t p = 0; p < n_ppdus; ++p) {
        const std::size_t begin = full.ppdu_start + p * ppdu_len;
        const std::size_t data = begin + full.ppdu.data_start;
        for (std::size_t i = begin; i < data; ++i)
          ASSERT_EQ(out.samples[i], full.samples[i]) << "prefix " << p << " @" << i;
        for (std::size_t s = 0; s < full.ppdu.n_data_symbols; ++s) {
          const std::size_t lo = data + s * wifi::symbol_samples;
          const std::size_t hi = lo + wifi::symbol_samples;
          bool touched = false;
          for (const dsp::sample_range& r : rs)
            touched = touched || (r.begin < hi && lo < r.end);
          expected_modulated += touched ? 1 : 0;
          for (std::size_t i = lo; i < hi; ++i) {
            if (touched) {
              ASSERT_EQ(out.samples[i], full.samples[i])
                  << n_ppdus << " PPDUs, PPDU " << p << " @" << i;
            } else {
              ASSERT_TRUE(std::isnan(out.samples[i].real()))
                  << n_ppdus << " PPDUs, PPDU " << p << " @" << i;
            }
          }
        }
      }
      EXPECT_EQ(modulated, expected_modulated);
    }
  }
}

}  // namespace
}  // namespace backfi::reader
