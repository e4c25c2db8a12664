// Small dense complex linear algebra: just enough to solve the regularized
// least-squares FIR fits of channel estimation and self-interference
// cancellation (5-8 taps in the simulator). The normal equations come from
// one Gram/RHS builder (dsp/linalg_kernels.h), vectorized across matrix
// entries while each entry's time accumulation stays in the seed order, so
// every fit is bit-identical to the original scalar loops.
#pragma once

#include <cstdint>
#include <span>

#include "dsp/types.h"
#include "dsp/workspace.h"

namespace backfi::dsp {

/// Process-wide count of normal-equations builds (relaxed). `vectorized`
/// counts every fir_ls_build. The scalar and correlation-form builders
/// were deleted once no workload ran them; their fields stay, always 0,
/// for readers of the older three-way split (the regime benchmark's
/// dsp.fir_ls.* metrics).
struct fir_ls_counts {
  std::uint64_t scalar = 0;
  std::uint64_t vectorized = 0;
  std::uint64_t correlation = 0;
};
fir_ls_counts fir_ls_dispatch_counts();

/// Reusable state for FIR least-squares fits. gram holds the n_taps x
/// n_taps column-major normal matrix after fir_ls_build, and its Cholesky
/// factor L (lower triangle) after fir_ls_factor. The widely-linear
/// canceller's alternating refits change only the target y, never the
/// excitation, so they rebuild the RHS and reuse the factor.
struct fir_ls_workspace {
  cvec gram;
  cvec rhs;
  double col_energy = 0.0;  ///< pre-ridge gram(0,0).real(): ridge scaling
  std::size_t n_taps = 0;
  bool factored = false;
};

/// Build the pre-ridge normal equations for y[t] = sum_k h[k] x[t-k] over
/// the rows with full filter memory (bumps fir_ls_dispatch_counts()).
/// Throws std::invalid_argument unless min(|x|, |y|) >= n_taps >= 1.
void fir_ls_build(std::span<const cplx> x, std::span<const cplx> y,
                  std::size_t n_taps, fir_ls_workspace& w,
                  workspace_stats* stats = nullptr);

/// Rebuild only the RHS against a new target y (same x and n_taps as the
/// preceding fir_ls_build; the Gram/factor are untouched).
void fir_ls_build_rhs(std::span<const cplx> x, std::span<const cplx> y,
                      fir_ls_workspace& w);

/// Derive the normal equations of the conjugated, head-trimmed problem —
/// excitation conj(x)[edge:], same tap count — from an already-built linear
/// workspace: the Gram of conj(x) is the elementwise conjugate of the Gram
/// of x, and trimming `edge` leading rows subtracts `edge` head terms per
/// entry. O(edge * n_taps^2) instead of a fresh O(n_taps * window) build.
/// `lin` must be built over x and not yet factored. The RHS is NOT set;
/// call fir_ls_build_rhs with the conjugated spans.
void fir_ls_derive_conj(std::span<const cplx> x, std::size_t edge,
                        const fir_ls_workspace& lin, fir_ls_workspace& w,
                        workspace_stats* stats = nullptr);

/// Add the energy-scaled ridge to the diagonal and Cholesky-factor the
/// Gram in place. Throws std::runtime_error if not positive definite.
void fir_ls_factor(fir_ls_workspace& w, double ridge);

/// taps := (A^H A + ridge' I)^{-1} rhs using the stored factor.
void fir_ls_solve(const fir_ls_workspace& w, cvec& taps,
                  workspace_stats* stats = nullptr);

/// Least squares for the convolution model y[n] = sum_k h[k] x[n-k]:
/// builds the Toeplitz normal equations from the known input x and the
/// observed output y and writes the length-`n_taps` channel estimate into
/// `taps`, reusing the fit state in `w`. Only rows where the full filter
/// memory is available are used; `ridge` is scaled by the excitation
/// energy (see fir_ls_factor).
void estimate_fir_least_squares_into(std::span<const cplx> x,
                                     std::span<const cplx> y,
                                     std::size_t n_taps, double ridge,
                                     cvec& taps, fir_ls_workspace& w,
                                     workspace_stats* stats = nullptr);

namespace detail {

/// In-place Cholesky A = L L^H on an n x n column-major buffer (lower
/// triangle overwritten with L; upper triangle untouched). Same operation
/// order as the seed implementation — bit-identical factors.
void cholesky_factor_in_place(cplx* a, std::size_t n);

/// Solve L L^H x = b in place over b, given the factored lower triangle.
void cholesky_solve_in_place(const cplx* a, std::size_t n, cplx* b);

}  // namespace detail

}  // namespace backfi::dsp
