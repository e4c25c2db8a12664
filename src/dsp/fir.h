// Linear convolution and its windowed "same"-length forms.
//
// Channels in BackFi are short (a handful of 50 ns taps), and so is every
// kernel the simulator convolves with, so there is one implementation: the
// direct-form loop, whose windowed forms (dsp/fir_kernels.h) let a caller
// compute only the output samples it reads.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.h"
#include "dsp/workspace.h"

namespace backfi::dsp {

/// Full linear convolution: output length = len(x) + len(h) - 1, empty when
/// either operand is.
cvec convolve(std::span<const cplx> x, std::span<const cplx> h);

/// "Same"-length convolution: output length = len(x), aligned so that
/// h[0] multiplies x[n] (i.e. the filter is causal, output truncated).
cvec convolve_same(std::span<const cplx> x, std::span<const cplx> h);

/// Windowed "same"-length convolution into a window-sized span:
/// out[j] = convolve_same(x, h)[begin + j] for j < len(out), bit-identical
/// to the full convolution. The window must lie inside x. Each output
/// depends only on its own index, so a long window can be produced tile by
/// tile into a cache-sized buffer.
void convolve_same_window(std::span<const cplx> x, std::span<const cplx> h,
                          std::size_t begin, std::span<cplx> out);

/// convolve_same into a reusable caller buffer (sized to len(x)),
/// restricted to the window [begin, end) (clamped to len(x)). Only the
/// window is written — samples outside it are left with unspecified
/// (stale) contents, so callers must not read them. `stats`, when
/// non-null, records buffer reuse vs. growth.
void convolve_same_range_into(std::span<const cplx> x, std::span<const cplx> h,
                              std::size_t begin, std::size_t end, cvec& out,
                              workspace_stats* stats = nullptr);

/// convolve_same into a reusable caller buffer (whole output written).
void convolve_same_into(std::span<const cplx> x, std::span<const cplx> h,
                        cvec& out, workspace_stats* stats = nullptr);

/// Fused cancellation: out[j] = rx[j] - convolve_same(x, h)[j] for
/// j < min(len(rx), len(x)), and out[j] = rx[j] beyond (matching a
/// subtract over the overlapping prefix). Bit-identical to materializing
/// the convolution and subtracting, without the intermediate buffer.
void convolve_same_subtract_into(std::span<const cplx> rx,
                                 std::span<const cplx> x,
                                 std::span<const cplx> h, cvec& out,
                                 workspace_stats* stats = nullptr);

/// As convolve_same_subtract_into, restricted to the window [begin, end)
/// (clamped to len(rx)): out is sized to len(rx) but only the window is
/// written with bit-identical values — samples outside it are left with
/// unspecified (stale) contents, so callers must not read them. Cost is
/// proportional to the window.
void convolve_same_subtract_range_into(std::span<const cplx> rx,
                                       std::span<const cplx> x,
                                       std::span<const cplx> h,
                                       std::size_t begin, std::size_t end,
                                       cvec& out,
                                       workspace_stats* stats = nullptr);

}  // namespace backfi::dsp
