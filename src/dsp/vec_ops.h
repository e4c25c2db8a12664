// Element-wise and reduction operations on complex baseband vectors.
#pragma once

#include <span>

#include "dsp/types.h"
#include "dsp/workspace.h"

namespace backfi::dsp {

/// Sum of |x[i]|^2 over the span.
double energy(std::span<const cplx> x);

/// Mean of |x[i]|^2 (0 for empty spans).
double mean_power(std::span<const cplx> x);

/// Root-mean-square magnitude.
double rms(std::span<const cplx> x);

/// Inner product sum x[i] * conj(y[i]); spans must have equal length.
cplx dot_conj(std::span<const cplx> x, std::span<const cplx> y);

/// y += x element-wise; spans must have equal length.
void add_in_place(std::span<cplx> y, std::span<const cplx> x);

/// y -= x element-wise; spans must have equal length.
void subtract_in_place(std::span<cplx> y, std::span<const cplx> x);

/// x *= s element-wise.
void scale_in_place(std::span<cplx> x, cplx s);

/// Returns x scaled so that mean power equals target (no-op on silence).
cvec normalized_to_power(std::span<const cplx> x, double target_mean_power);

/// Element-wise product x .* y as a new vector.
cvec hadamard(std::span<const cplx> x, std::span<const cplx> y);

/// Element-wise product x .* y into a reusable caller buffer (sized to
/// x.size()); spans must have equal length.
void hadamard_into(std::span<const cplx> x, std::span<const cplx> y, cvec& out,
                   workspace_stats* stats = nullptr);

/// Element-wise sum x + y into a reusable caller buffer (sized to
/// x.size()); spans must have equal length.
void add_into(std::span<const cplx> x, std::span<const cplx> y, cvec& out,
              workspace_stats* stats = nullptr);

/// Maximum |x[i]| over the span (0 for empty spans).
double peak_magnitude(std::span<const cplx> x);

/// Index of the element with maximum magnitude (0 for empty spans).
std::size_t argmax_magnitude(std::span<const cplx> x);

}  // namespace backfi::dsp
