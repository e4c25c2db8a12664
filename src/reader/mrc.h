// Maximal-ratio combining estimation of the tag's per-symbol phase
// (paper Section 4.3.2, Eq. 7 and Fig. 6).
//
// Within one tag symbol the phase e^{j theta_c} is constant and the
// combined forward-backward channel is short, so every sample in the
// (guard-trimmed) symbol window is an independent noisy observation of
// theta_c scaled by the known quantity yhat[n] = x_{n,L+M}^T h_fb. MRC
// weights and sums them:
//
//   m = sum_n y[n] * conj(yhat[n]) / sum_n |yhat[n]|^2   ~   e^{j theta_c}
//
// Every kernel below sums each symbol's terms in ascending sample order,
// starting from zero, exactly as mrc_estimate does over the symbol's
// window, so they all agree with it to the bit. A symbol whose window runs
// past the end of the capture, and every symbol after it, is left 0.
#pragma once

#include <span>
#include <vector>

#include "dsp/types.h"
#include "dsp/workspace.h"

namespace backfi::reader {

/// MRC estimate over samples [begin, end) of y against the expected
/// unmodulated backscatter yhat (same indexing). Returns ~e^{j theta}.
/// Returns 0 when the window carries no usable energy.
cplx mrc_estimate(std::span<const cplx> y, std::span<const cplx> yhat,
                  std::size_t begin, std::size_t end);

/// The per-sample MRC terms of the window [begin, begin + len(yhat)), with
/// yhat indexed from `begin`: products[i] = y[begin + i] * conj(yhat[i]) and
/// weights[i] = |yhat[i]|^2. The sync scan reads each term once per
/// candidate offset, so it precomputes them over its sync window.
void mrc_terms_into(std::span<const cplx> y, std::span<const cplx> yhat,
                    std::size_t begin, cvec& products,
                    std::vector<double>& weights,
                    dsp::workspace_stats* stats = nullptr);

/// Sync-scan kernel: MRC estimates of `n_symbols` symbols of
/// `samples_per_symbol` (the first `guard` samples of each trimmed) at
/// `n_offsets` adjacent timing offsets, offset o placing symbol 0 at
/// `first_symbol_start + o`. Reads the terms of mrc_terms_into, whose
/// index 0 is absolute sample `window_begin`; `capture_size` is the length
/// of the capture they came from. out[o * n_symbols + s] receives symbol s
/// at offset o. Every symbol window must lie inside the terms' window or
/// past `capture_size`. Adjacent offsets are summed as independent chains.
void mrc_offset_estimates(std::span<const cplx> products,
                          std::span<const double> weights,
                          std::size_t window_begin, std::size_t capture_size,
                          std::size_t first_symbol_start,
                          std::size_t n_offsets,
                          std::size_t samples_per_symbol,
                          std::size_t n_symbols, std::size_t guard,
                          std::span<cplx> out);

/// Samples of expected backscatter the payload pass holds at a time
/// (64 KiB of yhat: it stays in L1/L2 next to the y it is combined with).
inline constexpr std::size_t mrc_tile_samples = 4096;

/// Fused payload kernel: MRC estimates of `n_symbols` symbols starting at
/// `first_symbol_start` (guard-trimmed as above) into out[0, n_symbols).
/// yhat = x * h_fb is produced tile by tile into `tile` (at most
/// `tile_samples` per tile, whole symbols per tile when they fit) and
/// combined with y while it is in cache; nothing capture-sized is written.
/// x and y must have the same length. Several symbols are summed as
/// independent chains.
void mrc_payload_estimates(std::span<const cplx> x, std::span<const cplx> h_fb,
                           std::span<const cplx> y,
                           std::size_t first_symbol_start,
                           std::size_t samples_per_symbol,
                           std::size_t n_symbols, std::size_t guard,
                           cvec& tile, std::span<cplx> out,
                           std::size_t tile_samples = mrc_tile_samples,
                           dsp::workspace_stats* stats = nullptr);

/// Naive alternative the paper rejects (Section 4.3.2): divide y by yhat
/// sample-wise and average. Amplifies noise wherever |yhat| is small;
/// exists for the MRC-superiority tests and the ablation bench.
cplx naive_division_estimate(std::span<const cplx> y, std::span<const cplx> yhat,
                             std::size_t begin, std::size_t end);

}  // namespace backfi::reader
