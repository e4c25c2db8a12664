// Hot inner loops of the FIR least-squares normal equations, compiled in
// their own translation unit with aggressive flags (see dsp/CMakeLists.txt:
// -O3 -mavx2 -ffp-contract=off, the adc.cpp / philox_kernels.cpp pattern).
//
// Two builders, selected by estimate_fir_least_squares' size dispatch:
//
//  - fir_normal_equations_vectorized: the compat fast path. Exploits that
//    the Gram entries for a fixed row i share the broadcast factor
//    conj(x[t - i]) and that the RHS entries share the broadcast y[t], so
//    lanes run ACROSS matrix entries while each entry's time accumulation
//    stays strictly sequential — bit-identical to the scalar triple loop,
//    at ~2 complex MACs per cycle instead of ~1 per 4 cycles.
//
//  - fir_normal_equations_correlation: the asymptotic path for wide
//    filters. The FIR data matrix is Toeplitz, so gram(i, j) differs from
//    gram(i-1, j-1) by exactly one head term and one tail term; the whole
//    Gram follows from the n_taps base-row lag correlations in O(n_taps^2)
//    edge corrections instead of O(n_taps^2 * window) dot products. The
//    recurrence reassociates the per-entry sums, so this path is
//    tolerance-equivalent (not bit-identical) to the scalar build — the
//    dispatch thresholds in linalg.h keep every in-simulation fit (5-8
//    taps) off it.
#pragma once

#include <cstddef>

#include "dsp/types.h"

namespace backfi::dsp::detail {

/// Build the pre-ridge normal equations for the causal FIR model
/// y[t] = sum_k h[k] x[t-k] over the rows t in [n_taps-1, n) where the full
/// filter memory exists. `gram` is n_taps x n_taps column-major (both
/// triangles written); `rhs` has n_taps entries. Bit-identical to the
/// scalar reference build in linalg.cpp for every entry.
void fir_normal_equations_vectorized(const cplx* x, std::size_t n,
                                     const cplx* y, std::size_t n_taps,
                                     cplx* gram, cplx* rhs);

/// As above via the correlation-form construction: base-row lags plus the
/// Toeplitz head/tail recurrence. Same contract, tolerance-level agreement.
void fir_normal_equations_correlation(const cplx* x, std::size_t n,
                                      const cplx* y, std::size_t n_taps,
                                      cplx* gram, cplx* rhs);

/// RHS only (n_taps cross-correlation dot products against a new target y;
/// the Gram depends only on x). Bit-identical to the scalar RHS loop.
void fir_rhs_vectorized(const cplx* x, std::size_t n, const cplx* y,
                        std::size_t n_taps, cplx* rhs);

/// Vectorized finite-check over the interleaved I/Q doubles of two aligned
/// complex spans, restricted to [begin, end). Same predicate as the scalar
/// std::isfinite sweep (v - v == 0 rejects exactly NaN and +/-Inf).
bool all_finite_window2(const cplx* x, const cplx* y, std::size_t begin,
                        std::size_t end);

}  // namespace backfi::dsp::detail
