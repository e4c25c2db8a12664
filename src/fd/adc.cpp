#include "fd/adc.h"

#include <algorithm>
#include <cmath>

#include "dsp/vec_ops.h"

namespace backfi::fd {

cvec quantize(std::span<const cplx> x, const adc_config& config) {
  cvec out;
  quantize_into(x, config, out);
  return out;
}

void quantize_into(std::span<const cplx> x, const adc_config& config,
                   cvec& out, dsp::workspace_stats* stats) {
  const double levels = static_cast<double>(1ULL << config.bits);
  const double full_scale = config.full_scale;
  const double step = 2.0 * full_scale / levels;
  dsp::acquire(out, x.size(), stats);
  // Quantize the I/Q axes as one flat double array (std::complex<double> is
  // layout-compatible with double[2]): per-axis ops are independent, so the
  // flat loop performs the identical clamp/divide/round/scale sequence per
  // axis and vectorizes where the complex-element form did not. The divide
  // by step must stay a divide — multiplying by a reciprocal rounds
  // differently.
  const double* __restrict in = reinterpret_cast<const double*>(x.data());
  double* __restrict o = reinterpret_cast<double*>(out.data());
  const std::size_t n = 2 * x.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double clipped = std::clamp(in[i], -full_scale, full_scale);
    o[i] = std::round(clipped / step) * step;
  }
}

void quantize_into_saturation(std::span<const cplx> x, const adc_config& config,
                              cvec& out, bool& saturated,
                              dsp::workspace_stats* stats) {
  dsp::acquire(out, x.size(), stats);
  unsigned clipped_any = 0;
  quantize_range_saturation(x.data(), 0, x.size(), config, out.data(),
                            clipped_any);
  saturated = clipped_any != 0;
}

void quantize_range_saturation(const cplx* x, std::size_t begin,
                               std::size_t end, const adc_config& config,
                               cplx* out, unsigned& clipped_any) {
  const double levels = static_cast<double>(1ULL << config.bits);
  const double full_scale = config.full_scale;
  const double step = 2.0 * full_scale / levels;
  const double* __restrict in = reinterpret_cast<const double*>(x);
  double* __restrict o = reinterpret_cast<double*>(out);
  // Same flat per-axis sweep as quantize_into, with the saturation test
  // folded in as a branchless flag reduction: the clip decision needs the
  // same compares anyway, and the fused form reads the input once instead
  // of running a separate scan pass.
  for (std::size_t i = 2 * begin; i < 2 * end; ++i) {
    const double v = in[i];
    clipped_any |= static_cast<unsigned>(v < -full_scale) |
                   static_cast<unsigned>(v > full_scale);
    const double clipped = std::clamp(v, -full_scale, full_scale);
    o[i] = std::round(clipped / step) * step;
  }
}

double agc_full_scale(std::span<const cplx> x, double headroom) {
  return std::max(dsp::rms(x) * headroom, 1e-30);
}

double quantization_noise_power(const adc_config& config) {
  const double levels = static_cast<double>(1ULL << config.bits);
  const double step = 2.0 * config.full_scale / levels;
  // step^2/12 per axis, two axes.
  return step * step / 6.0;
}

}  // namespace backfi::fd
