// Windowed direct-form convolution kernels (internal to dsp).
//
// These compute the "same"-length convolution restricted to an output window
// [o0, o1), bit-identical to convolve/convolve_same on that window.
// The TU is compiled with -mavx2 (when the build host supports it) but
// explicitly WITHOUT -mfma and with -ffp-contract=off: fusing the
// multiply-add chains would change rounding and break the bit-identity
// contract against the scalar baseline.
#pragma once

#include <cstddef>

#include "dsp/types.h"

namespace backfi::dsp::detail {

/// out[j - o0] = sum_k h[k] * x[j - k] for j in [o0, o1), accumulated in
/// ascending-input order (descending k) — the same per-output addition
/// sequence as convolve's scatter loop, so results are bit-identical
/// for finite inputs. Requires o1 <= nx and nh >= 1.
void convolve_same_gather(const cplx* x, std::size_t nx, const cplx* h,
                          std::size_t nh, cplx* out, std::size_t o0,
                          std::size_t o1);

/// Fused cancellation form: out[j - o0] = rx[j] - (x * h)[j] over [o0, o1),
/// with the convolution accumulated exactly as convolve_same_gather. `rx`
/// must cover indices [o0, o1). Bit-identical to materializing the
/// convolution and subtracting.
void convolve_same_gather_subtract(const cplx* x, std::size_t nx,
                                   const cplx* h, std::size_t nh,
                                   const cplx* rx, cplx* out, std::size_t o0,
                                   std::size_t o1);

}  // namespace backfi::dsp::detail
