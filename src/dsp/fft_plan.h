// Precomputed FFT execution plans for power-of-two sizes.
//
// The WiFi PHY only needs 64-point transforms, but a plan works for any
// power of two. A plan caches everything that depends only on (size,
// direction): the swap pairs of the bit-reversal permutation and per-stage
// twiddle tables built with the original per-call recurrence. Its radix-2
// butterflies are therefore bit-identical to that recurrence at every size,
// and every Monte-Carlo regression anchor is unchanged by the tables. Plans
// are immutable after construction and shared process-wide through
// `get_fft_plan`, so they are safe to use from sweep worker threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dsp/types.h"

namespace backfi::dsp {

/// True if n is a power of two (and nonzero).
bool is_power_of_two(std::size_t n);

enum class fft_direction { forward, inverse };

class fft_plan {
 public:
  /// Build a plan for one size and direction. Throws std::invalid_argument
  /// unless n is a power of two.
  fft_plan(std::size_t n, fft_direction direction);

  std::size_t size() const { return n_; }
  fft_direction direction() const { return direction_; }

  /// Execute the transform in place. No normalization in either direction
  /// (callers scale the inverse by 1/N). Throws std::invalid_argument if
  /// data.size() != size(). Thread-safe: the plan is read-only.
  void execute(std::span<cplx> data) const;

 private:
  std::size_t n_;
  fft_direction direction_;
  std::vector<std::uint32_t> swap_pairs_;  ///< bit-reversal swaps, flattened
  cvec twiddles_;                          ///< all stages, back to back
  std::vector<std::size_t> offsets_;       ///< first twiddle of each stage
};

/// Shared immutable plan from the process-wide cache. The returned
/// reference lives for the whole process; lookups are lock-free after the
/// first request for a given (size, direction). Throws
/// std::invalid_argument unless n is a power of two.
const fft_plan& get_fft_plan(std::size_t n, fft_direction direction);

}  // namespace backfi::dsp
