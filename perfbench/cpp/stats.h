// Statistics and counter helpers of the regime benchmark: medians and
// quartiles of repeated measurements, a tail percentile that only claims
// what its sample count supports, and snapshots of the simulator's
// process-wide counters (replay caches, least-squares dispatch) whose
// differences attribute work to one stretch of the run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of the values; throws std::invalid_argument on empty input.
double median(std::vector<double> values);

/// First, second and third quartile with the same interpolation as
/// Python's statistics.quantiles(values, n=4) (the "exclusive" method), so
/// spreads printed here match the ones computed from the result files.
/// Needs at least two values (std::invalid_argument otherwise).
struct quartile_set {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
  /// (q3 - q1) / q2: the run-to-run spread as a share of the median.
  double relative_spread() const;
};
quartile_set quartiles(std::vector<double> values);

/// A tail percentile that respects the ten-beyond rule: the reported
/// percentile is the wanted one when at least ten samples lie beyond its
/// nearest-rank position, otherwise the highest percentile that still has
/// ten samples beyond it. With ten or fewer samples no tail is supported.
struct tail_estimate {
  double value = 0.0;       ///< sample at the reported percentile
  double percentile = 0.0;  ///< percentile actually reported (<= wanted)
  std::size_t samples = 0;  ///< sample count the estimate rests on
  bool supported = false;   ///< false when samples <= 10
};
tail_estimate tail_percentile(std::vector<double> values, double wanted);

/// Process-wide simulator counters that only ever grow. A snapshot taken
/// before and after a stretch of work gives that stretch's counts by
/// subtraction; a counter that went backwards means the two snapshots were
/// swapped (or taken from different processes), which subtraction rejects.
struct counter_snapshot {
  std::uint64_t excitation_hits = 0;
  std::uint64_t excitation_misses = 0;
  std::uint64_t noise_hits = 0;
  std::uint64_t noise_misses = 0;
  std::uint64_t fir_ls_correlation = 0;
  std::uint64_t fir_ls_vectorized = 0;
  std::uint64_t fir_ls_scalar = 0;

  /// Read the simulator's counters now.
  static counter_snapshot take();

  /// this - earlier, field by field; std::logic_error if any field of
  /// `earlier` is larger.
  counter_snapshot since(const counter_snapshot& earlier) const;
  counter_snapshot& operator+=(const counter_snapshot& other);
};

/// hits / (hits + misses); 0 when neither happened (cache unused or off).
double hit_fraction(std::uint64_t hits, std::uint64_t misses);

}  // namespace perfbench
