// Hot demodulation kernels of constellation::slice and the max-log soft
// demappers, split into their own translation unit so they can be compiled
// with AVX2 (contraction off) while constellation.cpp keeps the default
// flags — the same pattern as the dsp fir/rng/linalg kernel TUs. Both
// kernels keep the exact semantics of the scalar loops they replaced:
// squared distances computed as norm(y - p) with one rounding per
// operation, the first (lowest-index) point winning slice ties, and each
// max-log minimum taken like std::min (a NaN distance never replaces a
// running minimum).
#pragma once

#include <cstddef>
#include <cstdint>

#include "dsp/types.h"

namespace backfi::phy::detail {

/// Index of the point minimizing |y - points[i]|^2 over i in [0, n);
/// lowest index wins ties (and a non-finite y returns 0, like a scan whose
/// comparisons all fail). n must be at least 1.
std::size_t nearest_point(const cplx* points, std::size_t n, cplx y);

/// Largest bits_per_symbol demap_max_log accepts (labels are 32-bit).
inline constexpr std::size_t kMaxDemapBits = 32;

/// Max-log LLRs of `n_symbols` symbols against the constellation
/// (points[i] labelled labels[i], `bits_per_symbol` label bits, MSB first):
///   out[s * bits_per_symbol + b] = (min1 - min0) * inv_var
/// where min1 / min0 are the smallest |symbols[s] - points[i]|^2 over the
/// points whose label bit b is 1 / 0 (+inf when there are none, or when
/// every such distance is NaN). Positive favours bit 0. bits_per_symbol
/// must be in [1, kMaxDemapBits].
void demap_max_log(const cplx* points, const std::uint32_t* labels,
                   std::size_t n_points, std::size_t bits_per_symbol,
                   const cplx* symbols, std::size_t n_symbols, double inv_var,
                   double* out);

}  // namespace backfi::phy::detail
