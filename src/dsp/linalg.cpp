#include "dsp/linalg.h"

#include <atomic>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "dsp/linalg_kernels.h"

namespace backfi::dsp {

namespace {

std::atomic<std::uint64_t> g_fir_ls_builds{0};

}  // namespace

fir_ls_counts fir_ls_dispatch_counts() {
  fir_ls_counts c;
  c.vectorized = g_fir_ls_builds.load(std::memory_order_relaxed);
  return c;
}

namespace detail {

void cholesky_factor_in_place(cplx* a, std::size_t n) {
  // Column-by-column Cholesky; l(i, j) overwrites a(i, j) only after every
  // read of that entry, so the in-place form reproduces the out-of-place
  // seed factorization bit for bit.
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a[j * n + j].real();
    for (std::size_t k = 0; k < j; ++k) diag -= std::norm(a[k * n + j]);
    if (diag <= 0.0) throw std::runtime_error("solve_hpd: matrix not positive definite");
    const double ljj = std::sqrt(diag);
    a[j * n + j] = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      cplx acc = a[j * n + i];
      for (std::size_t k = 0; k < j; ++k)
        acc -= a[k * n + i] * std::conj(a[k * n + j]);
      a[j * n + i] = acc / ljj;
    }
  }
}

void cholesky_solve_in_place(const cplx* a, std::size_t n, cplx* b) {
  // Forward substitution L z = b, z over b.
  for (std::size_t i = 0; i < n; ++i) {
    cplx acc = b[i];
    for (std::size_t k = 0; k < i; ++k) acc -= a[k * n + i] * b[k];
    b[i] = acc / a[i * n + i];
  }
  // Backward substitution L^H x = z, x over b.
  for (std::size_t ii = n; ii-- > 0;) {
    cplx acc = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k)
      acc -= std::conj(a[ii * n + k]) * b[k];
    b[ii] = acc / a[ii * n + ii];
  }
}

}  // namespace detail

void fir_ls_build(std::span<const cplx> x, std::span<const cplx> y,
                  std::size_t n_taps, fir_ls_workspace& w,
                  workspace_stats* stats) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n_taps == 0) throw std::invalid_argument("estimate_fir: zero taps");
  if (n < n_taps) throw std::invalid_argument("estimate_fir: too few samples");
  g_fir_ls_builds.fetch_add(1, std::memory_order_relaxed);
  acquire(w.gram, n_taps * n_taps, stats);
  acquire(w.rhs, n_taps, stats);
  w.n_taps = n_taps;
  w.factored = false;
  detail::fir_normal_equations_vectorized(x.data(), n, y.data(), n_taps,
                                          w.gram.data(), w.rhs.data());
  // The builder accumulates gram(0, 0) with the same products and order as
  // a separate column-energy sweep, so the ridge scale comes for free.
  w.col_energy = w.gram[0].real();
}

void fir_ls_build_rhs(std::span<const cplx> x, std::span<const cplx> y,
                      fir_ls_workspace& w) {
  const std::size_t n_taps = w.n_taps;
  assert(n_taps > 0 && w.rhs.size() == n_taps);
  const std::size_t n = std::min(x.size(), y.size());
  if (n < n_taps) throw std::invalid_argument("estimate_fir: too few samples");
  detail::fir_rhs_vectorized(x.data(), n, y.data(), n_taps, w.rhs.data());
}

void fir_ls_derive_conj(std::span<const cplx> x, std::size_t edge,
                        const fir_ls_workspace& lin, fir_ls_workspace& w,
                        workspace_stats* stats) {
  const std::size_t n_taps = lin.n_taps;
  assert(n_taps > 0 && !lin.factored);
  const std::size_t n = x.size();
  if (n < edge + n_taps)
    throw std::invalid_argument("fir_ls_derive_conj: too few samples");
  acquire(w.gram, n_taps * n_taps, stats);
  acquire(w.rhs, n_taps, stats);
  w.n_taps = n_taps;
  w.factored = false;
  const std::size_t t0 = n_taps - 1;
  // gram_conj(i, j) over rows t in [edge + t0, n) of conj(x) equals
  // conj(gram_lin(i, j) minus the `edge` leading row terms of x).
  for (std::size_t i = 0; i < n_taps; ++i) {
    for (std::size_t j = i; j < n_taps; ++j) {
      cplx acc = lin.gram[j * n_taps + i];
      for (std::size_t t = t0; t < t0 + edge; ++t)
        acc -= std::conj(x[t - i]) * x[t - j];
      w.gram[j * n_taps + i] = std::conj(acc);
      w.gram[i * n_taps + j] = acc;
    }
  }
  double energy = lin.col_energy;
  for (std::size_t t = t0; t < t0 + edge; ++t) energy -= std::norm(x[t]);
  w.col_energy = energy;
}

void fir_ls_factor(fir_ls_workspace& w, double ridge) {
  assert(!w.factored && w.n_taps > 0);
  // Scale ridge with excitation energy so regularization strength is
  // independent of the absolute signal level.
  const double scaled_ridge = ridge * std::max(w.col_energy, 1e-30);
  for (std::size_t i = 0; i < w.n_taps; ++i)
    w.gram[i * w.n_taps + i] += scaled_ridge;
  detail::cholesky_factor_in_place(w.gram.data(), w.n_taps);
  w.factored = true;
}

void fir_ls_solve(const fir_ls_workspace& w, cvec& taps,
                  workspace_stats* stats) {
  assert(w.factored);
  acquire(taps, w.n_taps, stats);
  std::copy(w.rhs.begin(), w.rhs.end(), taps.begin());
  detail::cholesky_solve_in_place(w.gram.data(), w.n_taps, taps.data());
}

void estimate_fir_least_squares_into(std::span<const cplx> x,
                                     std::span<const cplx> y,
                                     std::size_t n_taps, double ridge,
                                     cvec& taps, fir_ls_workspace& w,
                                     workspace_stats* stats) {
  fir_ls_build(x, y, n_taps, w, stats);
  fir_ls_factor(w, ridge);
  fir_ls_solve(w, taps, stats);
}

}  // namespace backfi::dsp
