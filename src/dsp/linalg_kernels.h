// Hot inner loops of the FIR least-squares normal equations, compiled in
// their own translation unit with aggressive flags (see dsp/CMakeLists.txt:
// -O3 -mavx2 -ffp-contract=off, the adc.cpp / philox_kernels.cpp pattern).
//
// The normal-equations builder exploits that the Gram entries for a fixed
// row i share the broadcast factor conj(x[t - i]) and that the RHS entries
// share the broadcast y[t], so lanes run ACROSS matrix entries while each
// entry's time accumulation stays strictly sequential — bit-identical to
// the scalar triple loop at every window length, at ~2 complex MACs per
// cycle instead of ~1 per 4 cycles.
#pragma once

#include <cstddef>

#include "dsp/types.h"

namespace backfi::dsp::detail {

/// Build the pre-ridge normal equations for the causal FIR model
/// y[t] = sum_k h[k] x[t-k] over the rows t in [n_taps-1, n) where the full
/// filter memory exists. `gram` is n_taps x n_taps column-major (both
/// triangles written); `rhs` has n_taps entries. Every entry is
/// bit-identical to the scalar accumulation
/// sum_t conj(x[t - i]) * x[t - j] (resp. * y[t]) in ascending t.
void fir_normal_equations_vectorized(const cplx* x, std::size_t n,
                                     const cplx* y, std::size_t n_taps,
                                     cplx* gram, cplx* rhs);

/// RHS only (n_taps cross-correlation dot products against a new target y;
/// the Gram depends only on x). Bit-identical to the scalar RHS loop.
void fir_rhs_vectorized(const cplx* x, std::size_t n, const cplx* y,
                        std::size_t n_taps, cplx* rhs);

}  // namespace backfi::dsp::detail
