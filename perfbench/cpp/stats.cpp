#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "channel/awgn.h"
#include "dsp/linalg.h"
#include "reader/excitation.h"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quartile_set::relative_spread() const {
  return q2 != 0.0 ? (q3 - q1) / std::abs(q2) : 0.0;
}

quartile_set quartiles(std::vector<double> values) {
  if (values.size() < 2)
    throw std::invalid_argument("quartiles need at least two values");
  std::sort(values.begin(), values.end());
  const long long n = static_cast<long long>(values.size());
  // statistics.quantiles(method="exclusive"): m = n + 1; for cut point i,
  // j = floor(i * m / 4) clamped to [1, n - 1], delta = i * m - 4 * j
  // (after the clamp, so the end cuts extrapolate), and the value
  // interpolates data[j - 1] and data[j].
  auto cut = [&](long long i) {
    const long long m = n + 1;
    const long long j = std::clamp(i * m / 4, 1LL, n - 1);
    const long long delta = i * m - 4 * j;
    return (values[static_cast<std::size_t>(j - 1)] *
                static_cast<double>(4 - delta) +
            values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return {cut(1), cut(2), cut(3)};
}

tail_estimate tail_percentile(std::vector<double> values, double wanted) {
  tail_estimate out;
  out.samples = values.size();
  const std::size_t n = values.size();
  if (n <= 10 || !(wanted > 0.0) || wanted > 100.0) return out;
  std::sort(values.begin(), values.end());
  // Nearest rank of the wanted percentile (1-based); the samples beyond
  // it are the n - rank larger ones.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(wanted / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  double percentile = wanted;
  if (n - rank < 10) {
    rank = n - 10;
    percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  }
  out.value = values[rank - 1];
  out.percentile = percentile;
  out.supported = true;
  return out;
}

counter_snapshot counter_snapshot::take() {
  counter_snapshot s;
  const auto ex = backfi::reader::excitation_cache_stats();
  s.excitation_hits = ex.hits;
  s.excitation_misses = ex.misses;
  const auto noise = backfi::channel::awgn_cache_stats();
  s.noise_hits = noise.hits;
  s.noise_misses = noise.misses;
  const auto ls = backfi::dsp::fir_ls_dispatch_counts();
  s.fir_ls_correlation = ls.correlation;
  s.fir_ls_vectorized = ls.vectorized;
  s.fir_ls_scalar = ls.scalar;
  return s;
}

counter_snapshot counter_snapshot::since(const counter_snapshot& earlier) const {
  auto minus = [](std::uint64_t now, std::uint64_t before) {
    if (before > now)
      throw std::logic_error("counter went backwards between snapshots");
    return now - before;
  };
  counter_snapshot d;
  d.excitation_hits = minus(excitation_hits, earlier.excitation_hits);
  d.excitation_misses = minus(excitation_misses, earlier.excitation_misses);
  d.noise_hits = minus(noise_hits, earlier.noise_hits);
  d.noise_misses = minus(noise_misses, earlier.noise_misses);
  d.fir_ls_correlation = minus(fir_ls_correlation, earlier.fir_ls_correlation);
  d.fir_ls_vectorized = minus(fir_ls_vectorized, earlier.fir_ls_vectorized);
  d.fir_ls_scalar = minus(fir_ls_scalar, earlier.fir_ls_scalar);
  return d;
}

counter_snapshot& counter_snapshot::operator+=(const counter_snapshot& o) {
  excitation_hits += o.excitation_hits;
  excitation_misses += o.excitation_misses;
  noise_hits += o.noise_hits;
  noise_misses += o.noise_misses;
  fir_ls_correlation += o.fir_ls_correlation;
  fir_ls_vectorized += o.fir_ls_vectorized;
  fir_ls_scalar += o.fir_ls_scalar;
  return *this;
}

double hit_fraction(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t total = hits + misses;
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
}

}  // namespace perfbench
