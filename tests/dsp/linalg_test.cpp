#include "dsp/linalg.h"

#include <gtest/gtest.h>
#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "dsp/fir.h"
#include "dsp/rng.h"

namespace backfi::dsp {
namespace {

// Column-major n x n Hermitian matrix solved through the in-place
// Cholesky factor/solve pair the FIR fits use.
cvec solve_hpd(cvec a, std::size_t n, cvec b) {
  detail::cholesky_factor_in_place(a.data(), n);
  detail::cholesky_solve_in_place(a.data(), n, b.data());
  return b;
}

cvec fit(std::span<const cplx> x, std::span<const cplx> y, std::size_t n_taps,
         double ridge = 1e-9) {
  cvec taps;
  fir_ls_workspace w;
  estimate_fir_least_squares_into(x, y, n_taps, ridge, taps, w);
  return taps;
}

TEST(LinalgTest, SolveIdentitySystem) {
  cvec a(9, cplx{0.0, 0.0});
  for (std::size_t i = 0; i < 3; ++i) a[i * 3 + i] = 1.0;
  const cvec b = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const cvec x = solve_hpd(a, 3, b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(std::abs(x[i] - b[i]), 0.0, 1e-12);
}

TEST(LinalgTest, SolveKnownHermitianSystem) {
  // A = [[2, j], [-j, 2]] is Hermitian positive definite (column-major).
  const cvec a = {2.0, cplx{0.0, -1.0}, cplx{0.0, 1.0}, 2.0};
  const cvec x_true = {{1.0, -1.0}, {2.0, 0.5}};
  cvec b(2);
  b[0] = a[0] * x_true[0] + a[2] * x_true[1];
  b[1] = a[1] * x_true[0] + a[3] * x_true[1];
  const cvec x = solve_hpd(a, 2, b);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_NEAR(std::abs(x[i] - x_true[i]), 0.0, 1e-12);
}

TEST(LinalgTest, SolveRejectsNonPositiveDefinite) {
  const cvec a = {1.0, 0.0, 0.0, -1.0};  // indefinite
  const cvec b = {{1.0, 0.0}, {1.0, 0.0}};
  EXPECT_THROW(solve_hpd(a, 2, b), std::runtime_error);
}

TEST(LinalgTest, LeastSquaresRecoversExactSolution) {
  // A short window (17 usable rows for 4 taps) with a consistent target:
  // the normal equations recover the filter to rounding.
  rng gen(42);
  cvec x(20);
  for (auto& v : x) v = gen.complex_gaussian();
  cvec h_true(4);
  for (auto& v : h_true) v = gen.complex_gaussian();
  const cvec y = convolve_same(x, h_true);

  const cvec h = fit(x, y, h_true.size(), 0.0);
  for (std::size_t k = 0; k < h_true.size(); ++k)
    EXPECT_NEAR(std::abs(h[k] - h_true[k]), 0.0, 1e-9);
}

TEST(LinalgTest, RidgeShrinksSolutionNorm) {
  rng gen(43);
  cvec x(16), y(16);
  for (auto& v : x) v = gen.complex_gaussian();
  for (auto& v : y) v = gen.complex_gaussian();

  const cvec h_plain = fit(x, y, 4, 0.0);
  const cvec h_ridge = fit(x, y, 4, 100.0);
  double norm_plain = 0.0, norm_ridge = 0.0;
  for (std::size_t k = 0; k < 4; ++k) {
    norm_plain += std::norm(h_plain[k]);
    norm_ridge += std::norm(h_ridge[k]);
  }
  EXPECT_LT(norm_ridge, norm_plain);
}

TEST(LinalgTest, FirEstimateRecoversChannelNoiseless) {
  rng gen(44);
  cvec x(400);
  for (auto& v : x) v = gen.complex_gaussian();
  const cvec h_true = {{0.8, 0.1}, {0.0, -0.3}, {0.05, 0.02}};
  const cvec y = convolve_same(x, h_true);

  const cvec h_est = fit(x, y, h_true.size());
  ASSERT_EQ(h_est.size(), h_true.size());
  for (std::size_t k = 0; k < h_true.size(); ++k)
    EXPECT_NEAR(std::abs(h_est[k] - h_true[k]), 0.0, 1e-6);
}

TEST(LinalgTest, FirEstimateToleratesNoise) {
  rng gen(45);
  cvec x(2000);
  for (auto& v : x) v = gen.complex_gaussian();
  const cvec h_true = {{1.0, 0.0}, {-0.4, 0.2}};
  cvec y = convolve_same(x, h_true);
  for (auto& v : y) v += 0.01 * gen.complex_gaussian();

  const cvec h_est = fit(x, y, h_true.size());
  for (std::size_t k = 0; k < h_true.size(); ++k)
    EXPECT_NEAR(std::abs(h_est[k] - h_true[k]), 0.0, 0.01);
}

TEST(LinalgTest, FirEstimateRejectsTooFewSamples) {
  const cvec x(4, cplx{1.0, 0.0});
  const cvec y(4, cplx{1.0, 0.0});
  EXPECT_THROW(fit(x, y, 8), std::invalid_argument);
}


TEST(LinalgTest, MatrixFreeFirEstimateMatchesMaterializedNormalEquations) {
  rng gen(77);
  for (const std::size_t n_taps :
       {std::size_t{1}, std::size_t{5}, std::size_t{8}}) {
    cvec x(220), y(220);
    for (auto& v : x) v = gen.complex_gaussian();
    for (auto& v : y) v = gen.complex_gaussian();
    const cvec fast = fit(x, y, n_taps, 1e-9);

    // Reference: materialize the design matrix and solve its normal
    // equations column by column, as the pre-refactor implementation did.
    // The matrix-free path keeps the same accumulation order, so the
    // estimates must match bit for bit.
    const std::size_t m = x.size() - (n_taps - 1);
    std::vector<cvec> a(n_taps, cvec(m));  // a[k][r] = x[r + n_taps - 1 - k]
    for (std::size_t r = 0; r < m; ++r)
      for (std::size_t k = 0; k < n_taps; ++k) a[k][r] = x[r + n_taps - 1 - k];
    double col_energy = 0.0;
    for (std::size_t r = 0; r < m; ++r) col_energy += std::norm(a[0][r]);
    const double ridge = 1e-9 * std::max(col_energy, 1e-30);
    cvec gram(n_taps * n_taps);
    cvec rhs(n_taps, cplx{0.0, 0.0});
    for (std::size_t i = 0; i < n_taps; ++i) {
      for (std::size_t j = i; j < n_taps; ++j) {
        cplx acc{0.0, 0.0};
        for (std::size_t r = 0; r < m; ++r) acc += std::conj(a[i][r]) * a[j][r];
        gram[j * n_taps + i] = acc;
        gram[i * n_taps + j] = std::conj(acc);
      }
      gram[i * n_taps + i] += ridge;
      for (std::size_t r = 0; r < m; ++r)
        rhs[i] += std::conj(a[i][r]) * y[r + n_taps - 1];
    }
    const cvec ref = solve_hpd(gram, n_taps, rhs);

    ASSERT_EQ(fast.size(), ref.size());
    for (std::size_t k = 0; k < ref.size(); ++k)
      ASSERT_EQ(fast[k], ref[k]) << "n_taps " << n_taps << " tap " << k;
  }
}

}  // namespace
}  // namespace backfi::dsp
