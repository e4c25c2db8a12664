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

/// y += x element-wise; spans must have equal length.
void add_in_place(std::span<cplx> y, std::span<const cplx> x);

/// Element-wise product x .* y as a new vector.
cvec hadamard(std::span<const cplx> x, std::span<const cplx> y);

/// Element-wise product x .* y into a reusable caller buffer (sized to
/// x.size()); spans must have equal length.
void hadamard_into(std::span<const cplx> x, std::span<const cplx> y, cvec& out,
                   workspace_stats* stats = nullptr);

}  // namespace backfi::dsp
