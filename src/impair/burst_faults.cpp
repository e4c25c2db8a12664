#include "impair/burst_faults.h"

#include <algorithm>
#include <cmath>

#include "dsp/philox.h"
#include "dsp/vec_ops.h"

namespace backfi::impair {

namespace {

constexpr double samples_per_ms = sample_rate_hz / 1e3;
constexpr double samples_per_us = sample_rate_hz / 1e6;

/// Walk Poisson arrivals over the span and add complex Gaussian noise of
/// amplitude `amp` over each burst's sample range. Burst lengths are
/// exponential with the given mean. One key draw precedes the arrivals;
/// sample n of the span, wherever a burst covers it, receives complex
/// normal n of that key.
void add_noise_bursts(double bursts_per_ms, double mean_duration_us,
                      std::span<cplx> x, double amp, dsp::rng& gen) {
  const std::size_t span_size = x.size();
  if (bursts_per_ms <= 0.0 || span_size == 0) return;
  const std::uint64_t key = gen.next_u64();
  const double mean_gap = samples_per_ms / bursts_per_ms;
  double cursor = gen.exponential(mean_gap);
  while (cursor < static_cast<double>(span_size)) {
    const std::size_t begin = static_cast<std::size_t>(cursor);
    const double len = std::max(1.0, gen.exponential(mean_duration_us) *
                                         samples_per_us);
    const std::size_t end =
        std::min(span_size, begin + static_cast<std::size_t>(len));
    dsp::add_complex_normals(key, begin, x.subspan(begin, end - begin), amp);
    cursor = static_cast<double>(end) + gen.exponential(mean_gap);
  }
}

}  // namespace

void apply_saturation_bursts(const saturation_burst_config& config,
                             std::span<cplx> x, dsp::rng& gen) {
  const double rms = dsp::rms(x);
  if (rms <= 0.0) return;
  add_noise_bursts(config.bursts_per_ms, config.mean_duration_us, x,
                   config.amplitude_over_rms * rms, gen);
}

void apply_interferer(const interferer_config& config, std::span<cplx> x,
                      dsp::rng& gen) {
  const double mean = dsp::mean_power(x);
  if (mean <= 0.0) return;
  const double amp = std::sqrt(
      mean * std::pow(10.0, config.power_db_over_signal / 10.0));
  add_noise_bursts(config.bursts_per_ms, config.mean_duration_us, x, amp,
                   gen);
}

}  // namespace backfi::impair
