#include "dsp/fir.h"

#include <algorithm>
#include <cassert>

#include "dsp/fir_kernels.h"

namespace backfi::dsp {

cvec convolve(std::span<const cplx> x, std::span<const cplx> h) {
  if (x.empty() || h.empty()) return {};
  cvec out(x.size() + h.size() - 1, cplx{0.0, 0.0});
  for (std::size_t i = 0; i < x.size(); ++i) {
    const cplx xi = x[i];
    if (xi == cplx{0.0, 0.0}) continue;
    for (std::size_t k = 0; k < h.size(); ++k) out[i + k] += xi * h[k];
  }
  return out;
}

cvec convolve_same(std::span<const cplx> x, std::span<const cplx> h) {
  cvec full = convolve(x, h);
  full.resize(x.size());
  return full;
}

void convolve_same_window(std::span<const cplx> x, std::span<const cplx> h,
                          std::size_t begin, std::span<cplx> out) {
  assert(begin + out.size() <= x.size());
  if (out.empty()) return;
  if (h.empty()) {
    std::fill(out.begin(), out.end(), cplx{0.0, 0.0});
    return;
  }
  detail::convolve_same_gather(x.data(), x.size(), h.data(), h.size(),
                               out.data(), begin, begin + out.size());
}

void convolve_same_range_into(std::span<const cplx> x, std::span<const cplx> h,
                              std::size_t begin, std::size_t end, cvec& out,
                              workspace_stats* stats) {
  acquire(out, x.size(), stats);
  const std::size_t e = std::min(end, x.size());
  const std::size_t b = std::min(begin, e);
  convolve_same_window(x, h, b, std::span(out).subspan(b, e - b));
}

void convolve_same_into(std::span<const cplx> x, std::span<const cplx> h,
                        cvec& out, workspace_stats* stats) {
  convolve_same_range_into(x, h, 0, x.size(), out, stats);
}

void convolve_same_subtract_into(std::span<const cplx> rx,
                                 std::span<const cplx> x,
                                 std::span<const cplx> h, cvec& out,
                                 workspace_stats* stats) {
  convolve_same_subtract_range_into(rx, x, h, 0, rx.size(), out, stats);
}

void convolve_same_subtract_range_into(std::span<const cplx> rx,
                                       std::span<const cplx> x,
                                       std::span<const cplx> h,
                                       std::size_t begin, std::size_t end,
                                       cvec& out, workspace_stats* stats) {
  acquire(out, rx.size(), stats);
  const std::size_t e = std::min(end, rx.size());
  const std::size_t b = std::min(begin, e);
  if (b >= e) return;
  const std::size_t overlap = h.empty() ? 0 : std::min(rx.size(), x.size());
  const std::size_t eo = std::min(e, overlap);
  if (b < eo)
    detail::convolve_same_gather_subtract(x.data(), x.size(), h.data(),
                                          h.size(), rx.data(), out.data() + b,
                                          b, eo);
  for (std::size_t j = std::max(b, eo); j < e; ++j) out[j] = rx[j];
}

}  // namespace backfi::dsp
