// Deterministic random number generation for the whole simulator.
//
// All stochastic behaviour (channel taps, noise, payloads, trace arrivals)
// flows through explicitly seeded rng instances so that every test, example
// and benchmark is reproducible run-to-run and machine-to-machine.
#pragma once

#include <cstdint>
#include <vector>

#include "dsp/types.h"

namespace backfi::dsp {

/// xoshiro256++ PRNG with Gaussian / uniform / complex-Gaussian draws.
/// Not cryptographic; chosen for speed and cross-platform determinism
/// (std::normal_distribution is implementation-defined, so we roll our own
/// Box-Muller on top of a fixed bit generator).
///
/// The scalar draws serve the per-trial decisions (channel taps, payload
/// bytes, arrival times). Bulk Gaussian noise does not come from this
/// stream: those stages take one next_u64() as the key of the
/// counter-based generator in dsp/philox.h.
class rng {
 public:
  explicit rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit draw.
  std::uint64_t next_u64() {
    const std::uint64_t result =
        rotl_(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl_(state_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double uniform() {
    // 53 random mantissa bits -> uniform double in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n).
  std::uint64_t uniform_int(std::uint64_t n);

  /// Standard normal N(0, 1).
  double gaussian();

  /// Circularly-symmetric complex Gaussian, E|z|^2 = 1.
  cplx complex_gaussian();

  /// Bernoulli(p) draw.
  bool bernoulli(double p);

  /// Exponential with given mean.
  double exponential(double mean);

  /// n random bits, one per byte (0 or 1). Legacy draw order: one full
  /// next_u64() is consumed *per bit* (bit 0 of each draw). Pinned trial
  /// literals (tag payloads) depend on these stream positions, so this
  /// method must never change.
  std::vector<std::uint8_t> random_bits(std::size_t n);

  /// Derive an independent child generator (for per-trial streams).
  rng fork();

 private:
  static std::uint64_t rotl_(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
  bool have_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

}  // namespace backfi::dsp
