#include "reader/mrc.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "dsp/fir.h"

namespace backfi::reader {

namespace {

// Independent accumulation chains per kernel call: enough to hide the
// floating-point add latency of one running sum behind the others.
constexpr std::size_t kChains = 4;

cplx estimate(cplx numerator, double denominator) {
  return denominator <= 0.0 ? cplx{0.0, 0.0} : numerator / denominator;
}

// K symbol windows at adjacent offsets (window k starts at p + k), each
// summed over `len` precomputed terms in ascending order from zero; window
// k's estimate goes to out[k * out_stride].
template <std::size_t K>
void combine_terms(const cplx* p, const double* w, std::size_t len, cplx* out,
                   std::size_t out_stride) {
  cplx num[K]{};
  double den[K]{};
  for (std::size_t i = 0; i < len; ++i)
    for (std::size_t k = 0; k < K; ++k) {
      num[k] += p[i + k];
      den[k] += w[i + k];
    }
  for (std::size_t k = 0; k < K; ++k)
    out[k * out_stride] = estimate(num[k], den[k]);
}

// K symbol windows `stride` samples apart (window k starts at y + k * stride
// and yhat + k * stride): the MRC terms are formed on the fly and added, in
// ascending sample order, to the running sums num[k] / den[k]. The terms
// are spelled out in real arithmetic with the roundings of std::complex's
// y * conj(h) (re: yr*hr - yi*(-hi) == yr*hr + yi*hi; im: yr*(-hi) + yi*hr
// == yi*hr - yr*hi) and std::norm's hr*hr + hi*hi, but without the
// product's inf/NaN recovery branch: identical whenever that product is not
// NaN in both parts, which finite operands reach only by overflowing. The
// sums live in local doubles so they stay in registers.
template <std::size_t K>
void combine_samples(const cplx* y, const cplx* yhat, std::size_t stride,
                     std::size_t len, cplx* num, double* den) {
  const double* yd = reinterpret_cast<const double*>(y);
  const double* hd = reinterpret_cast<const double*>(yhat);
  double re[K], im[K], d[K];
  for (std::size_t k = 0; k < K; ++k) {
    re[k] = num[k].real();
    im[k] = num[k].imag();
    d[k] = den[k];
  }
  for (std::size_t i = 0; i < len; ++i)
    for (std::size_t k = 0; k < K; ++k) {
      const std::size_t at = 2 * (k * stride + i);
      const double yr = yd[at], yi = yd[at + 1];
      const double hr = hd[at], hi = hd[at + 1];
      re[k] += yr * hr + yi * hi;
      im[k] += yi * hr - yr * hi;
      d[k] += hr * hr + hi * hi;
    }
  for (std::size_t k = 0; k < K; ++k) {
    num[k] = {re[k], im[k]};
    den[k] = d[k];
  }
}

}  // namespace

cplx mrc_estimate(std::span<const cplx> y, std::span<const cplx> yhat,
                  std::size_t begin, std::size_t end) {
  assert(y.size() == yhat.size());
  assert(begin <= end && end <= y.size());
  cplx numerator{0.0, 0.0};
  double denominator = 0.0;
  for (std::size_t n = begin; n < end; ++n) {
    numerator += y[n] * std::conj(yhat[n]);
    denominator += std::norm(yhat[n]);
  }
  if (denominator <= 0.0) return {0.0, 0.0};
  return numerator / denominator;
}

void mrc_terms_into(std::span<const cplx> y, std::span<const cplx> yhat,
                    std::size_t begin, cvec& products,
                    std::vector<double>& weights, dsp::workspace_stats* stats) {
  assert(begin + yhat.size() <= y.size());
  const std::size_t n = yhat.size();
  dsp::acquire(products, n, stats);
  dsp::acquire(weights, n, stats);
  for (std::size_t i = 0; i < n; ++i) {
    products[i] = y[begin + i] * std::conj(yhat[i]);
    weights[i] = std::norm(yhat[i]);
  }
}

void mrc_offset_estimates(std::span<const cplx> products,
                          std::span<const double> weights,
                          std::size_t window_begin, std::size_t capture_size,
                          std::size_t first_symbol_start,
                          std::size_t n_offsets,
                          std::size_t samples_per_symbol,
                          std::size_t n_symbols, std::size_t guard,
                          std::span<cplx> out) {
  const std::size_t sps = samples_per_symbol;
  assert(guard < sps);
  assert(products.size() == weights.size());
  assert(out.size() >= n_offsets * n_symbols);
  std::fill_n(out.begin(), n_offsets * n_symbols, cplx{0.0, 0.0});
  const std::size_t len = sps - guard;
  for (std::size_t s = 0; s < n_symbols; ++s) {
    // Symbol s at offset o ends at first_symbol_start + o + (s + 1) * sps;
    // only the offsets below `fit` end inside the capture.
    const std::size_t end0 = first_symbol_start + (s + 1) * sps;
    if (end0 > capture_size) break;
    const std::size_t fit = std::min(n_offsets, capture_size - end0 + 1);
    const std::size_t begin0 = end0 - len;
    assert(begin0 >= window_begin &&
           end0 + fit - 1 - window_begin <= products.size());
    const cplx* p = products.data() + (begin0 - window_begin);
    const double* w = weights.data() + (begin0 - window_begin);
    cplx* o_out = out.data() + s;
    std::size_t o = 0;
    for (; o + kChains <= fit; o += kChains)
      combine_terms<kChains>(p + o, w + o, len, o_out + o * n_symbols,
                             n_symbols);
    for (; o < fit; ++o)
      combine_terms<1>(p + o, w + o, len, o_out + o * n_symbols, n_symbols);
  }
}

void mrc_payload_estimates(std::span<const cplx> x, std::span<const cplx> h_fb,
                           std::span<const cplx> y,
                           std::size_t first_symbol_start,
                           std::size_t samples_per_symbol,
                           std::size_t n_symbols, std::size_t guard,
                           cvec& tile, std::span<cplx> out,
                           std::size_t tile_samples,
                           dsp::workspace_stats* stats) {
  const std::size_t sps = samples_per_symbol;
  assert(x.size() == y.size());
  assert(guard < sps && tile_samples > 0);
  assert(out.size() >= n_symbols);
  std::fill_n(out.begin(), n_symbols, cplx{0.0, 0.0});
  const std::size_t n_fit =
      y.size() >= first_symbol_start
          ? std::min(n_symbols, (y.size() - first_symbol_start) / sps)
          : 0;
  if (n_fit == 0) return;
  dsp::acquire(tile, std::min(tile_samples, n_fit * sps), stats);
  const std::size_t len = sps - guard;
  const std::size_t per_tile = tile_samples / sps;
  if (per_tile == 0) {
    // Symbols longer than a tile: each symbol's chain carries across tiles.
    for (std::size_t s = 0; s < n_fit; ++s) {
      const std::size_t begin = first_symbol_start + s * sps + guard;
      const std::size_t end = begin + len;
      cplx num{0.0, 0.0};
      double den = 0.0;
      for (std::size_t lo = begin; lo < end; lo += tile_samples) {
        const std::size_t n = std::min(end - lo, tile_samples);
        dsp::convolve_same_window(x, h_fb, lo, std::span(tile).first(n));
        combine_samples<1>(y.data() + lo, tile.data(), 0, n, &num, &den);
      }
      out[s] = estimate(num, den);
    }
    return;
  }
  // Whole symbols per tile: yhat over [first symbol's guard end, last
  // symbol's end), then the symbols in chains of kChains.
  for (std::size_t s = 0; s < n_fit;) {
    const std::size_t k = std::min(per_tile, n_fit - s);
    const std::size_t lo = first_symbol_start + s * sps + guard;
    dsp::convolve_same_window(x, h_fb, lo,
                              std::span(tile).first(k * sps - guard));
    std::size_t j = 0;
    for (; j + kChains <= k; j += kChains) {
      cplx num[kChains]{};
      double den[kChains]{};
      combine_samples<kChains>(y.data() + lo + j * sps, tile.data() + j * sps,
                               sps, len, num, den);
      for (std::size_t c = 0; c < kChains; ++c)
        out[s + j + c] = estimate(num[c], den[c]);
    }
    for (; j < k; ++j) {
      cplx num{0.0, 0.0};
      double den = 0.0;
      combine_samples<1>(y.data() + lo + j * sps, tile.data() + j * sps, 0,
                         len, &num, &den);
      out[s + j] = estimate(num, den);
    }
    s += k;
  }
}

cplx naive_division_estimate(std::span<const cplx> y, std::span<const cplx> yhat,
                             std::size_t begin, std::size_t end) {
  assert(begin <= end && end <= y.size());
  cplx acc{0.0, 0.0};
  std::size_t count = 0;
  for (std::size_t n = begin; n < end; ++n) {
    if (std::norm(yhat[n]) <= 0.0) continue;
    acc += y[n] / yhat[n];
    ++count;
  }
  if (count == 0) return {0.0, 0.0};
  return acc / static_cast<double>(count);
}

}  // namespace backfi::reader
