#include "phy/demod_kernels.h"

#include <algorithm>
#include <limits>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace backfi::phy::detail {

namespace {

// The scalar reference scan: ascending index, strict `<`, so the first
// point at the minimum distance wins. Also the tail/odd-size path for the
// vector kernel.
std::size_t nearest_scalar(const cplx* points, std::size_t n, cplx y) {
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    const double d = std::norm(y - points[i]);
    if (d < best_dist) {
      best_dist = d;
      best = i;
    }
  }
  return best;
}

}  // namespace

std::size_t nearest_point(const cplx* points, std::size_t n, cplx y) {
#if defined(__AVX2__)
  // Four points per iteration: each lane tracks the best distance (and its
  // index, exactly representable as a double) among the indices congruent
  // to that lane. Groups are scanned ascending and a lane is replaced only
  // on strict improvement, so each lane holds the *earliest* index at its
  // minimum; the final scalar reduce then picks the smallest distance and,
  // on exact ties, the smallest index — the scalar scan's first-wins
  // result. The per-lane distance is (yr-pr)^2 + (yi-pi)^2 with one
  // rounding per operation, bit-identical to the scalar std::norm(y - p).
  if (n >= 8 && n % 4 == 0) {
    const __m256d yr = _mm256_set1_pd(y.real());
    const __m256d yi = _mm256_set1_pd(y.imag());
    __m256d best_d = _mm256_set1_pd(std::numeric_limits<double>::infinity());
    __m256d best_i = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
    __m256d idx = best_i;
    const __m256d four = _mm256_set1_pd(4.0);
    const double* pb = reinterpret_cast<const double*>(points);
    for (std::size_t i = 0; i < n; i += 4, pb += 8) {
      const __m256d a = _mm256_loadu_pd(pb);      // [p0r p0i p1r p1i]
      const __m256d b = _mm256_loadu_pd(pb + 4);  // [p2r p2i p3r p3i]
      const __m256d pr =
          _mm256_permute4x64_pd(_mm256_unpacklo_pd(a, b), 0b11011000);
      const __m256d pi =
          _mm256_permute4x64_pd(_mm256_unpackhi_pd(a, b), 0b11011000);
      const __m256d dr = _mm256_sub_pd(yr, pr);
      const __m256d di = _mm256_sub_pd(yi, pi);
      const __m256d d =
          _mm256_add_pd(_mm256_mul_pd(dr, dr), _mm256_mul_pd(di, di));
      const __m256d lt = _mm256_cmp_pd(d, best_d, _CMP_LT_OQ);
      best_d = _mm256_blendv_pd(best_d, d, lt);
      best_i = _mm256_blendv_pd(best_i, idx, lt);
      idx = _mm256_add_pd(idx, four);
    }
    alignas(32) double dist[4];
    alignas(32) double index[4];
    _mm256_store_pd(dist, best_d);
    _mm256_store_pd(index, best_i);
    double bd = dist[0];
    double bi = index[0];
    for (int lane = 1; lane < 4; ++lane) {
      if (dist[lane] < bd || (dist[lane] == bd && index[lane] < bi)) {
        bd = dist[lane];
        bi = index[lane];
      }
    }
    return static_cast<std::size_t>(bi);
  }
#endif
  return nearest_scalar(points, n, y);
}

#if defined(__AVX2__)

namespace {

// Max-log demap of four symbols per group, one per lane. Every point's
// distance to the four symbols is (yr-pr)^2 + (yi-pi)^2 with one rounding
// per operation, bit-identical to the scalar std::norm(y - p). Accumulator
// 2b + v holds bit b's running minimum over the points whose label bit is
// v. _mm256_min_pd(d, acc) is (d < acc) ? d : acc — exactly
// std::min(acc, d), so a NaN distance leaves the minimum alone. The
// accumulators start at +inf and only ever take non-NaN values, and squared
// distances are never -0, so each minimum is one exact value whatever
// order the points are visited in.
//
// Bits > 0 is the built-in layout: 2^Bits points given in label order
// (point l carries label l), so every accumulator index is a compile-time
// constant once the point loop unrolls and the minima live in registers.
// Bits == 0 takes any layout: bits_per_symbol and labels at run time.
template <std::size_t Bits>
void demap_avx2(const cplx* points, const std::uint32_t* labels,
                std::size_t n_points, std::size_t bits_per_symbol,
                const cplx* symbols, std::size_t n_symbols, double inv_var,
                double* out) {
  constexpr bool kFixed = Bits > 0;
  const std::size_t bps = kFixed ? Bits : bits_per_symbol;
  const std::size_t n = kFixed ? (std::size_t{1} << Bits) : n_points;
  const __m256d inv = _mm256_set1_pd(inv_var);
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  alignas(32) double llr[kFixed ? Bits : kMaxDemapBits][4];
  const auto group = [&](const double* y4) {  // 4 interleaved symbols
    const __m256d a = _mm256_loadu_pd(y4);      // [y0r y0i y1r y1i]
    const __m256d b = _mm256_loadu_pd(y4 + 4);  // [y2r y2i y3r y3i]
    const __m256d yr =
        _mm256_permute4x64_pd(_mm256_unpacklo_pd(a, b), 0b11011000);
    const __m256d yi =
        _mm256_permute4x64_pd(_mm256_unpackhi_pd(a, b), 0b11011000);
    __m256d acc[2 * (kFixed ? Bits : kMaxDemapBits)];
    for (std::size_t k = 0; k < 2 * bps; ++k) acc[k] = inf;
    const double* p = reinterpret_cast<const double*>(points);
#pragma GCC unroll 64
    for (std::size_t i = 0; i < n; ++i) {
      const __m256d dr = _mm256_sub_pd(yr, _mm256_broadcast_sd(p + 2 * i));
      const __m256d di = _mm256_sub_pd(yi, _mm256_broadcast_sd(p + 2 * i + 1));
      const __m256d d =
          _mm256_add_pd(_mm256_mul_pd(dr, dr), _mm256_mul_pd(di, di));
      std::uint32_t label = kFixed ? static_cast<std::uint32_t>(i) : labels[i];
      for (std::size_t bit = bps; bit-- > 0; label >>= 1) {
        __m256d& m = acc[2 * bit + (label & 1u)];
        m = _mm256_min_pd(d, m);
      }
    }
    for (std::size_t bit = 0; bit < bps; ++bit)
      _mm256_store_pd(llr[bit], _mm256_mul_pd(_mm256_sub_pd(acc[2 * bit + 1],
                                                            acc[2 * bit]),
                                              inv));
  };
  const auto emit = [&](std::size_t lanes) {
    for (std::size_t lane = 0; lane < lanes; ++lane, out += bps)
      for (std::size_t bit = 0; bit < bps; ++bit) out[bit] = llr[bit][lane];
  };
  const double* y = reinterpret_cast<const double*>(symbols);
  std::size_t s = 0;
  for (; s + 4 <= n_symbols; s += 4, y += 8) {
    group(y);
    emit(4);
  }
  if (s < n_symbols) {
    // Tail: pad the last group with zero symbols; their lanes are dropped.
    const std::size_t rest = n_symbols - s;
    alignas(32) double tail[8] = {};
    std::copy(y, y + 2 * rest, tail);
    group(tail);
    emit(rest);
  }
}

}  // namespace

#endif  // __AVX2__

void demap_max_log(const cplx* points, const std::uint32_t* labels,
                   std::size_t n_points, std::size_t bits_per_symbol,
                   const cplx* symbols, std::size_t n_symbols, double inv_var,
                   double* out) {
  const std::size_t bps = bits_per_symbol;
#if defined(__AVX2__)
  // Every built-in constellation has 2^bps points whose labels are a
  // permutation of [0, 2^bps): reorder them by label and run the
  // fixed-width instantiation. Any other layout runs the run-time one.
  if (bps >= 1 && bps <= 6 && n_points == (std::size_t{1} << bps)) {
    cplx by_label[64];
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < n_points && labels[i] < n_points; ++i) {
      by_label[labels[i]] = points[i];
      seen |= std::uint64_t{1} << labels[i];
    }
    using fixed_kernel = void (*)(const cplx*, const std::uint32_t*,
                                  std::size_t, std::size_t, const cplx*,
                                  std::size_t, double, double*);
    static constexpr fixed_kernel kByWidth[] = {
        nullptr,       demap_avx2<1>, demap_avx2<2>, demap_avx2<3>,
        demap_avx2<4>, demap_avx2<5>, demap_avx2<6>};
    if (seen == ~std::uint64_t{0} >> (64 - n_points))
      return kByWidth[bps](by_label, nullptr, 0, 0, symbols, n_symbols,
                           inv_var, out);
  }
  demap_avx2<0>(points, labels, n_points, bps, symbols, n_symbols, inv_var,
                out);
#else
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double acc[2 * kMaxDemapBits];
  for (std::size_t s = 0; s < n_symbols; ++s, out += bps) {
    std::fill(acc, acc + 2 * bps, kInf);
    for (std::size_t i = 0; i < n_points; ++i) {
      const double d = std::norm(symbols[s] - points[i]);
      std::uint32_t label = labels[i];
      for (std::size_t bit = bps; bit-- > 0; label >>= 1) {
        double& m = acc[2 * bit + (label & 1u)];
        m = std::min(m, d);
      }
    }
    for (std::size_t bit = 0; bit < bps; ++bit)
      out[bit] = (acc[2 * bit + 1] - acc[2 * bit]) * inv_var;
  }
#endif
}

}  // namespace backfi::phy::detail
