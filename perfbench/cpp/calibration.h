// Machine-speed calibration for the end-to-end timings.
//
// A shared host makes a core's speed wander over seconds: on a 4-vCPU
// Xeon KVM guest, 10 s medians of trial_cold ranged over 219-284 trials/s
// for one unchanged build, far more than the benchmark's bounds allow. The
// benchmark therefore runs a fixed compute kernel right before and after
// every measured block (and inside it, see calibrated_timer) and scales
// the block's timing to what it would have been at the kernel's reference
// rate: an interference phase slows kernel and block alike, and the
// ratio stays put. The kernel is code of the benchmark's own (Gaussian
// synthesis through libm plus an 8-tap complex FIR over an 8 Ki-sample
// buffer, the same instruction mix as the simulator's hot stages). Its
// buffers are written before its clock starts, so it computes on warm data
// whatever the simulator evicted, and no change to the simulator moves it.
#pragma once

#include <cstddef>

namespace perfbench {

/// Kernel runs per second at which timings are reported unscaled (the
/// kernel's single-core rate, 1800-2200 runs/s, on a 4-vCPU Xeon host).
inline constexpr double kReferenceKernelRate = 2000.0;

/// Current kernel rate [runs/s] per lane, averaged over `lanes` threads
/// running the kernel concurrently (the calling thread is one of them).
double kernel_rate(std::size_t lanes);

/// Times a measured stretch in reference seconds. The kernel runs when the
/// timer starts, whenever sample() is called inside the stretch and when
/// it stops. Each interval between two kernel runs counts its wall time
/// scaled by the mean of the two rates over the reference rate; kernel runs
/// themselves are excluded. Sampling inside the stretch, not only at its
/// ends, lets the kernel see the same interference the measured work saw.
class calibrated_timer {
 public:
  explicit calibrated_timer(std::size_t lanes);
  /// Run the kernel now; its time does not count toward the stretch.
  void sample();
  /// Stop: the stretch's wall seconds scaled to the reference speed.
  double reference_seconds();
  /// Wall seconds of the stretch, kernel runs excluded (valid after
  /// reference_seconds()).
  double wall_seconds() const { return wall_s_; }

 private:
  std::size_t lanes_;
  double last_rate_ = 0.0;        ///< kernel rate at the interval's start
  double interval_start_s_ = 0.0;
  double rate_seconds_ = 0.0;     ///< sum of interval wall time x mean rate
  double wall_s_ = 0.0;
};

}  // namespace perfbench
