#include "calibration.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

using steady = std::chrono::steady_clock;

double now_s() {
  return std::chrono::duration<double>(steady::now().time_since_epoch()).count();
}

constexpr std::size_t kSamples = std::size_t{1} << 13;

// One kernel run; returns its wall time [s]. Buffers are per thread, so
// concurrent lanes never share memory. They are written once before the
// clock starts: the timed part is compute on cache-warm data, whatever the
// simulator evicted before this run.
double run_kernel() {
  thread_local std::vector<std::complex<double>> x(kSamples);
  thread_local std::vector<std::complex<double>> y(kSamples);
  std::uint64_t s = 0x9e3779b97f4a7c15ULL;
  auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  constexpr double two_pi = 6.283185307179586;
  const std::complex<double> taps[8] = {{1.0, 0.1},   {0.5, -0.2},
                                        {0.25, 0.3},  {0.1, 0.0},
                                        {0.05, 0.02}, {0.02, -0.01},
                                        {0.01, 0.0},  {0.005, 0.001}};
  std::fill(x.begin(), x.end(), std::complex<double>{});
  std::fill(y.begin(), y.end(), std::complex<double>{});
  const double t0 = now_s();
  for (std::complex<double>& v : x) {
    const double u1 = (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
    const double u2 = static_cast<double>(next() >> 11) * 0x1.0p-53;
    const double r = std::sqrt(-2.0 * std::log(u1));
    v = {r * std::cos(two_pi * u2), r * std::sin(two_pi * u2)};
  }
  for (std::size_t i = 8; i < kSamples; ++i) {
    std::complex<double> acc = 0.0;
    for (std::size_t k = 0; k < 8; ++k) acc += taps[k] * x[i - k];
    y[i] = acc;
  }
  const double elapsed = now_s() - t0;
  // Keep the result observable so the loops cannot be dropped.
  volatile double sink = y[kSamples / 2].real();
  (void)sink;
  return elapsed;
}

}  // namespace

double kernel_rate(std::size_t lanes) {
  if (lanes <= 1) return 1.0 / run_kernel();
  std::vector<double> seconds(lanes, 0.0);
  std::vector<std::thread> helpers;
  helpers.reserve(lanes - 1);
  for (std::size_t l = 1; l < lanes; ++l)
    helpers.emplace_back([&seconds, l] { seconds[l] = run_kernel(); });
  seconds[0] = run_kernel();
  for (std::thread& t : helpers) t.join();
  double rate = 0.0;
  for (const double s : seconds) rate += 1.0 / s;
  return rate / static_cast<double>(lanes);
}

calibrated_timer::calibrated_timer(std::size_t lanes)
    : lanes_(lanes), last_rate_(kernel_rate(lanes)), interval_start_s_(now_s()) {}

void calibrated_timer::sample() {
  const double dt = now_s() - interval_start_s_;
  const double rate = kernel_rate(lanes_);
  rate_seconds_ += dt * 0.5 * (last_rate_ + rate);
  wall_s_ += dt;
  last_rate_ = rate;
  interval_start_s_ = now_s();
}

double calibrated_timer::reference_seconds() {
  sample();
  return rate_seconds_ / kReferenceKernelRate;
}

}  // namespace perfbench
