#include "reader/mrc.h"

#include <gtest/gtest.h>
#include <cstdint>
#include <vector>

#include "dsp/fir.h"
#include "dsp/math_util.h"
#include "dsp/rng.h"

namespace backfi::reader {
namespace {

/// Synthetic observation: y = yhat * e^{j theta} + noise.
struct observation {
  cvec y;
  cvec yhat;
};

observation make_observation(double theta, double noise_sigma, std::size_t n,
                             std::uint64_t seed) {
  dsp::rng gen(seed);
  observation obs;
  obs.yhat.resize(n);
  obs.y.resize(n);
  const cplx rot = dsp::phasor(theta);
  for (std::size_t i = 0; i < n; ++i) {
    // Wildly varying magnitudes, like an OFDM excitation through a channel.
    obs.yhat[i] = gen.complex_gaussian();
    obs.y[i] = obs.yhat[i] * rot + noise_sigma * gen.complex_gaussian();
  }
  return obs;
}

TEST(MrcTest, RecoversPhaseNoiseless) {
  for (double theta : {0.0, 0.7, -2.1, 3.0}) {
    const auto obs = make_observation(theta, 0.0, 64, 1);
    const cplx m = mrc_estimate(obs.y, obs.yhat, 0, obs.y.size());
    EXPECT_NEAR(dsp::wrap_phase(std::arg(m) - theta), 0.0, 1e-12) << theta;
    EXPECT_NEAR(std::abs(m), 1.0, 1e-12);
  }
}

TEST(MrcTest, EmptyOrSilentWindowGivesZero) {
  const cvec zeros(10, cplx{0.0, 0.0});
  EXPECT_EQ(mrc_estimate(zeros, zeros, 0, 10), cplx(0.0, 0.0));
  const auto obs = make_observation(1.0, 0.0, 10, 2);
  EXPECT_EQ(mrc_estimate(obs.y, obs.yhat, 5, 5), cplx(0.0, 0.0));
}

TEST(MrcTest, VarianceShrinksWithWindowLength) {
  // Average phase-estimate error over many draws for two window sizes.
  double err_short = 0.0, err_long = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const auto s = make_observation(0.5, 1.0, 8, 100 + t);
    const auto l = make_observation(0.5, 1.0, 128, 500 + t);
    err_short += std::norm(mrc_estimate(s.y, s.yhat, 0, 8) - dsp::phasor(0.5));
    err_long += std::norm(mrc_estimate(l.y, l.yhat, 0, 128) - dsp::phasor(0.5));
  }
  EXPECT_LT(err_long, err_short / 4.0);
}

TEST(MrcTest, BeatsNaiveDivision) {
  // The paper's point: dividing y by yhat amplifies noise on weak samples.
  double err_mrc = 0.0, err_naive = 0.0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    const auto obs = make_observation(1.2, 0.5, 32, 1000 + t);
    err_mrc += std::norm(mrc_estimate(obs.y, obs.yhat, 0, 32) - dsp::phasor(1.2));
    err_naive += std::norm(naive_division_estimate(obs.y, obs.yhat, 0, 32) -
                           dsp::phasor(1.2));
  }
  EXPECT_LT(err_mrc, err_naive / 2.0);
}

/// The per-symbol MRC the kernels replaced, kept as their reference:
/// mrc_estimate over each guard-trimmed symbol window, in order, leaving
/// the first symbol that runs past the capture and every later one 0.
cvec reference_symbol_estimates(std::span<const cplx> y,
                                std::span<const cplx> yhat,
                                std::size_t first_symbol_start,
                                std::size_t samples_per_symbol,
                                std::size_t n_symbols, std::size_t guard) {
  cvec out(n_symbols, cplx{0.0, 0.0});
  for (std::size_t s = 0; s < n_symbols; ++s) {
    const std::size_t start = first_symbol_start + s * samples_per_symbol;
    const std::size_t end = start + samples_per_symbol;
    if (end > y.size()) break;
    out[s] = mrc_estimate(y, yhat, start + guard, end);
  }
  return out;
}

cvec gaussian_vector(std::size_t n, dsp::rng& gen) {
  cvec v(n);
  for (auto& e : v) e = gen.complex_gaussian();
  return v;
}

/// The offset kernel over terms precomputed on [window_begin, capture end).
cvec offset_estimates(std::span<const cplx> y, std::span<const cplx> yhat,
                      std::size_t window_begin, std::size_t first,
                      std::size_t n_offsets, std::size_t sps,
                      std::size_t n_symbols, std::size_t guard) {
  cvec products;
  std::vector<double> weights;
  mrc_terms_into(y, yhat.subspan(window_begin), window_begin, products,
                 weights);
  cvec out(n_offsets * n_symbols, cplx{7.0, 7.0});
  mrc_offset_estimates(products, weights, window_begin, y.size(), first,
                       n_offsets, sps, n_symbols, guard, out);
  return out;
}

/// The payload kernel with yhat = x * h produced in tiles.
cvec payload_estimates(std::span<const cplx> x, std::span<const cplx> h,
                       std::span<const cplx> y, std::size_t first,
                       std::size_t sps, std::size_t n_symbols,
                       std::size_t guard, std::size_t tile_samples) {
  cvec tile;
  cvec out(n_symbols, cplx{7.0, 7.0});
  mrc_payload_estimates(x, h, y, first, sps, n_symbols, guard, tile, out,
                        tile_samples);
  return out;
}

const cvec identity_channel = {cplx{1.0, 0.0}};

TEST(MrcTest, SymbolEstimatesHonourGuardAndBoundaries) {
  // Two symbols with different phases; the guard must exclude the samples
  // we deliberately corrupt at each symbol head. A one-tap unit channel
  // makes the payload kernel's yhat the excitation itself.
  dsp::rng gen(3);
  const std::size_t sps = 20, guard = 4;
  cvec yhat(2 * sps), y(2 * sps);
  for (std::size_t i = 0; i < yhat.size(); ++i) yhat[i] = gen.complex_gaussian();
  for (std::size_t i = 0; i < sps; ++i) y[i] = yhat[i] * dsp::phasor(0.3);
  for (std::size_t i = sps; i < 2 * sps; ++i) y[i] = yhat[i] * dsp::phasor(-1.1);
  // Corrupt the first `guard` samples of each symbol (channel transition).
  for (std::size_t s = 0; s < 2; ++s)
    for (std::size_t i = 0; i < guard; ++i) y[s * sps + i] = {10.0, -10.0};

  for (const cvec& m :
       {payload_estimates(yhat, identity_channel, y, 0, sps, 2, guard, 4096),
        offset_estimates(y, yhat, 0, 0, 1, sps, 2, guard)}) {
    ASSERT_EQ(m.size(), 2u);
    EXPECT_NEAR(dsp::wrap_phase(std::arg(m[0]) - 0.3), 0.0, 1e-9);
    EXPECT_NEAR(dsp::wrap_phase(std::arg(m[1]) + 1.1), 0.0, 1e-9);
  }
}

TEST(MrcTest, TruncatedFinalSymbolLeftZero) {
  const auto obs = make_observation(0.2, 0.0, 30, 4);
  // Ask for 3 symbols of 16 samples from a 30-sample buffer: only 1 fits.
  const cvec m =
      payload_estimates(obs.yhat, identity_channel, obs.y, 0, 16, 3, 2, 4096);
  ASSERT_EQ(m.size(), 3u);
  EXPECT_GT(std::abs(m[0]), 0.5);
  EXPECT_EQ(m[1], cplx(0.0, 0.0));
  EXPECT_EQ(m[2], cplx(0.0, 0.0));
}

TEST(MrcTest, PrecomputedProductsReproduceSymbolEstimates) {
  dsp::rng gen(55);
  const std::size_t n = 400;
  const cvec y = gaussian_vector(n, gen);
  const cvec yhat = gaussian_vector(n, gen);
  const std::size_t first = 37, sps = 20, n_sym = 15, guard = 4, offsets = 6;
  const std::size_t begin = 30;
  const cvec out = offset_estimates(y, yhat, begin, first, offsets, sps, n_sym,
                                    guard);
  for (std::size_t o = 0; o < offsets; ++o) {
    const cvec direct =
        reference_symbol_estimates(y, yhat, first + o, sps, n_sym, guard);
    for (std::size_t s = 0; s < n_sym; ++s)
      ASSERT_EQ(out[o * n_sym + s], direct[s]) << o << " " << s;
  }

  // A warm re-run of the precompute serves from existing capacity.
  cvec products;
  std::vector<double> weights;
  dsp::workspace_stats stats;
  mrc_terms_into(y, std::span(yhat).subspan(begin), begin, products, weights,
                 &stats);
  ASSERT_EQ(products.size(), n - begin);
  ASSERT_EQ(weights.size(), n - begin);
  const std::uint64_t allocated = stats.bytes_allocated;
  mrc_terms_into(y, std::span(yhat).subspan(begin), begin, products, weights,
                 &stats);
  EXPECT_EQ(stats.bytes_allocated, allocated);
  EXPECT_GT(stats.bytes_reused, 0u);
}

TEST(MrcTest, ProductsPathReproducesEndOfCaptureTruncation) {
  dsp::rng gen(56);
  const std::size_t n = 100;
  const cvec y = gaussian_vector(n, gen);
  const cvec yhat = gaussian_vector(n, gen);
  // The final symbols extend past the capture, by a different count at
  // each offset; truncated symbols stay 0 as in the reference.
  const std::size_t first = 10, sps = 16, n_sym = 7, guard = 3, offsets = 9;
  const cvec out = offset_estimates(y, yhat, 0, first, offsets, sps, n_sym,
                                    guard);
  for (std::size_t o = 0; o < offsets; ++o) {
    const cvec direct =
        reference_symbol_estimates(y, yhat, first + o, sps, n_sym, guard);
    for (std::size_t s = 0; s < n_sym; ++s)
      ASSERT_EQ(out[o * n_sym + s], direct[s]) << o << " " << s;
  }
}

// Both kernels against the reference, bit for bit, across the symbol
// lengths the sweeps use (2.5 MHz down to 10 kHz), the guard's extremes,
// tiles shorter than, equal to and longer than a symbol (so symbols
// straddle tiles), a capture start inside the channel's reach (yhat
// clipped at sample 0), and captures that end mid-symbol.
TEST(MrcKernelTest, KernelsMatchPerSymbolReferenceBitForBit) {
  dsp::rng gen(57);
  const cvec h = gaussian_vector(5, gen);
  for (const std::size_t sps : {8, 10, 20, 40, 200, 2000}) {
    const std::size_t n_sym = sps >= 200 ? 5 : 21;
    for (const std::size_t guard : {std::size_t{0}, std::size_t{1},
                                    std::min<std::size_t>(4, sps - 2),
                                    sps - 1}) {
      for (const std::size_t first : {std::size_t{0}, std::size_t{3},
                                      std::size_t{301}}) {
        // Full capture, then one that ends inside the third-last symbol.
        for (const std::size_t n :
             {first + n_sym * sps + 64, first + (n_sym - 2) * sps - 1}) {
          const cvec x = gaussian_vector(n, gen);
          const cvec y = gaussian_vector(n, gen);
          const cvec yhat = dsp::convolve_same(x, h);
          const cvec direct =
              reference_symbol_estimates(y, yhat, first, sps, n_sym, guard);
          for (const std::size_t tile :
               {std::size_t{1}, std::size_t{7}, sps - 1, sps, sps + 1,
                3 * sps - 1, mrc_tile_samples}) {
            const cvec fused =
                payload_estimates(x, h, y, first, sps, n_sym, guard, tile);
            for (std::size_t s = 0; s < n_sym; ++s)
              ASSERT_EQ(fused[s], direct[s])
                  << "sps " << sps << " guard " << guard << " first " << first
                  << " n " << n << " tile " << tile << " symbol " << s;
          }
          const std::size_t offsets = 6;
          const cvec scan = offset_estimates(y, yhat, first, first, offsets,
                                             sps, n_sym, guard);
          for (std::size_t o = 0; o < offsets; ++o) {
            const cvec at = reference_symbol_estimates(y, yhat, first + o,
                                                       sps, n_sym, guard);
            for (std::size_t s = 0; s < n_sym; ++s)
              ASSERT_EQ(scan[o * n_sym + s], at[s])
                  << "sps " << sps << " guard " << guard << " offset " << o
                  << " symbol " << s;
          }
        }
      }
    }
  }
}

// FFT-length channels (dsp::fft_convolve_min_taps and up) convolve the
// whole capture per call, so the payload kernel takes them as one tile;
// the result still matches the reference over the overlap-save yhat.
TEST(MrcKernelTest, FftLengthChannelMatchesReference) {
  dsp::rng gen(58);
  const cvec h = gaussian_vector(dsp::fft_convolve_min_taps + 4, gen);
  const std::size_t sps = 40, n_sym = 12, guard = 4, first = 150;
  const std::size_t n = first + n_sym * sps + 10;
  const cvec x = gaussian_vector(n, gen);
  const cvec y = gaussian_vector(n, gen);
  const cvec direct = reference_symbol_estimates(
      y, dsp::convolve_same(x, h), first, sps, n_sym, guard);
  const cvec fused = payload_estimates(x, h, y, first, sps, n_sym, guard, 64);
  for (std::size_t s = 0; s < n_sym; ++s) ASSERT_EQ(fused[s], direct[s]) << s;
}

}  // namespace
}  // namespace backfi::reader
