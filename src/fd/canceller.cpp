#include "fd/canceller.h"

#include <algorithm>
#include <cmath>

#include "dsp/fir.h"
#include "dsp/fir_kernels.h"
#include "dsp/linalg.h"
#include "dsp/math_util.h"
#include "dsp/vec_ops.h"

namespace backfi::fd {

namespace {

cvec subtract_filtered(std::span<const cplx> tx, std::span<const cplx> rx,
                       const cvec& taps) {
  // convolve_same_subtract_into fuses the leakage emulation into the
  // subtraction (bit-identical to materializing convolve_same and
  // subtracting).
  cvec out;
  dsp::convolve_same_subtract_into(rx, tx, taps, out);
  return out;
}

}  // namespace

analog_canceller::analog_canceller(const analog_canceller_config& config)
    : config_(config) {}

void analog_canceller::adapt(std::span<const cplx> tx, std::span<const cplx> rx) {
  dsp::fir_ls_workspace w;
  adapt(tx, rx, w);
}

void analog_canceller::adapt(std::span<const cplx> tx, std::span<const cplx> rx,
                             dsp::fir_ls_workspace& w,
                             dsp::workspace_stats* stats) {
  const std::size_t n = std::min(tx.size(), rx.size());
  dsp::fir_ls_build(tx.first(n), rx.first(n), config_.n_taps, w, stats);
  dsp::fir_ls_factor(w, 1e-6);
  // taps_ lives in this canceller, not the scratch, so its (tap-count-sized)
  // acquisition is not part of the scratch reuse accounting.
  dsp::fir_ls_solve(w, taps_);
  // Quantize coefficients to the attenuator/phase-shifter resolution.
  double max_mag = 0.0;
  for (const cplx& t : taps_) max_mag = std::max({max_mag, std::abs(t.real()),
                                                  std::abs(t.imag())});
  if (max_mag <= 0.0) return;
  // ldexp(1.0, bits - 1) is the exact power of two the former
  // (1ULL << (bits - 1)) cast produced, without the shift's undefined
  // behaviour at bits > 64 (validate() bounds bits to [1, 64] regardless).
  const double step =
      max_mag / std::ldexp(1.0, static_cast<int>(config_.coefficient_bits) - 1);
  for (cplx& t : taps_)
    t = {std::round(t.real() / step) * step, std::round(t.imag() / step) * step};
}

cvec analog_canceller::cancel(std::span<const cplx> tx,
                              std::span<const cplx> rx) const {
  return subtract_filtered(tx, rx, taps_);
}

void analog_canceller::cancel_ranges_into(
    std::span<const cplx> tx, std::span<const cplx> rx, cvec& out,
    std::span<const dsp::sample_range> ranges,
    dsp::workspace_stats* stats) const {
  dsp::acquire(out, rx.size(), stats);
  for (const dsp::sample_range& r : ranges)
    dsp::convolve_same_subtract_range_into(rx, tx, taps_, r.begin, r.end, out,
                                           stats);
}

digital_canceller::digital_canceller(const digital_canceller_config& config)
    : config_(config) {}

void digital_canceller::adapt(std::span<const cplx> tx, std::span<const cplx> rx) {
  canceller_scratch scratch;
  adapt(tx, rx, scratch);
}

void digital_canceller::adapt(std::span<const cplx> tx, std::span<const cplx> rx,
                              canceller_scratch& s,
                              dsp::workspace_stats* stats) {
  const std::size_t n = std::min(tx.size(), rx.size());
  const auto txn = tx.first(n);
  const auto rxn = rx.first(n);

  // convolve_same zero-pads, so the first (taps - 1) samples of every
  // emulated waveform are a full-scale warm-up transient — it must be
  // excluded from all the statistics below or it swamps them.
  const std::size_t edge = config_.n_taps > 0 ? config_.n_taps - 1 : 0;
  const bool augmented =
      (config_.widely_linear || config_.remove_dc) && n > 3 * edge + 4;
  const bool wl = config_.widely_linear && n > 3 * edge + 4;

  dsp::fir_ls_build(txn, rxn, config_.n_taps, s.lin, stats);
  // The conj branch's Gram must be derived before the ridge/factor
  // overwrite the linear branch's lags in place.
  if (wl) dsp::fir_ls_derive_conj(txn, edge, s.lin, s.conj, stats);
  dsp::fir_ls_factor(s.lin, config_.ridge);
  // As in the analog stage, the tap vectors are canceller members, outside
  // the scratch reuse accounting.
  dsp::fir_ls_solve(s.lin, taps_);
  conj_taps_.clear();
  dc_ = {0.0, 0.0};
  if (!augmented) return;

  if (wl) {
    // conj(tx), computed once for the initial fit, the acceptance gate and
    // every refit round.
    dsp::acquire(s.ctx, n, stats);
    for (std::size_t i = 0; i < n; ++i) s.ctx[i] = std::conj(txn[i]);
    const auto ctx = std::span<const cplx>(s.ctx);
    const auto ctxv = ctx.subspan(edge);

    dsp::convolve_same_subtract_into(rxn, txn, taps_, s.work, stats);
    const auto res = std::span<const cplx>(s.work).subspan(edge);
    dsp::fir_ls_build_rhs(ctxv, res, s.conj);
    dsp::fir_ls_factor(s.conj, config_.ridge);
    dsp::fir_ls_solve(s.conj, conj_taps_);
    // Keep the branch only if it clearly explains training-window power.
    // On a healthy front end the residual is thermal noise; an LS fit of
    // that noise yields tiny taps which, multiplied by the full-scale
    // conj(tx) over the whole packet, would inject interference far above
    // the noise floor. Requiring a 3 dB training improvement rejects the
    // noise fit while an actual IQ image (tens of dB above noise) passes.
    dsp::convolve_same_subtract_into(res, ctxv, conj_taps_, s.work2, stats);
    if (dsp::mean_power(std::span<const cplx>(s.work2).subspan(edge)) <
        0.5 * dsp::mean_power(res.subspan(edge))) {
      // Alternating refits: over a short training window, tx and conj(tx)
      // are spuriously correlated at the 1/sqrt(window) level, so each
      // sequential fit leaks a few percent of the other branch. A couple
      // of rounds of re-fitting each branch against rx minus the other's
      // emulation shrinks that crosstalk geometrically. Only the target y
      // changes between rounds, so each branch rebuilds its RHS and reuses
      // its Cholesky factor.
      for (int round = 0; round < 2; ++round) {
        dsp::convolve_same_subtract_into(rxn, ctx, conj_taps_, s.work, stats);
        dsp::fir_ls_build_rhs(txn, s.work, s.lin);
        dsp::fir_ls_solve(s.lin, taps_);
        dsp::convolve_same_subtract_into(rxn, txn, taps_, s.work, stats);
        dsp::fir_ls_build_rhs(ctxv, std::span<const cplx>(s.work).subspan(edge),
                              s.conj);
        dsp::fir_ls_solve(s.conj, conj_taps_);
      }
    } else {
      conj_taps_.clear();
    }
  }
  if (config_.remove_dc) {
    // Mean of the fully-cancelled training residual (dc_ is still zero
    // here, so the cancellation applies only the FIR branches).
    cancel_into(txn, rxn, s.work, s, stats);
    const auto v = std::span<const cplx>(s.work).subspan(edge);
    cplx sum = {0.0, 0.0};
    for (const cplx& c : v) sum += c;
    dc_ = sum / static_cast<double>(v.size());
  }
}

cvec digital_canceller::cancel(std::span<const cplx> tx,
                               std::span<const cplx> rx) const {
  cvec out;
  cancel_into(tx, rx, out);
  return out;
}

void digital_canceller::cancel_into(std::span<const cplx> tx,
                                    std::span<const cplx> rx, cvec& out,
                                    dsp::workspace_stats* stats) const {
  dsp::convolve_same_subtract_into(rx, tx, taps_, out, stats);
  if (!conj_taps_.empty()) {
    cvec ctx(tx.size());
    for (std::size_t i = 0; i < tx.size(); ++i) ctx[i] = std::conj(tx[i]);
    const cvec emulated = dsp::convolve_same(ctx, conj_taps_);
    const std::size_t n = std::min(out.size(), emulated.size());
    for (std::size_t i = 0; i < n; ++i) out[i] -= emulated[i];
  }
  if (dc_ != cplx{0.0, 0.0})
    for (cplx& v : out) v -= dc_;
}

void digital_canceller::cancel_into(std::span<const cplx> tx,
                                    std::span<const cplx> rx, cvec& out,
                                    canceller_scratch& s,
                                    dsp::workspace_stats* stats) const {
  dsp::convolve_same_subtract_into(rx, tx, taps_, out, stats);
  if (!conj_taps_.empty()) {
    dsp::acquire(s.ctx, tx.size(), stats);
    for (std::size_t i = 0; i < tx.size(); ++i) s.ctx[i] = std::conj(tx[i]);
    dsp::convolve_same_into(s.ctx, conj_taps_, s.work2, stats);
    const std::size_t n = std::min(out.size(), s.work2.size());
    for (std::size_t i = 0; i < n; ++i) out[i] -= s.work2[i];
  }
  if (dc_ != cplx{0.0, 0.0})
    for (cplx& v : out) v -= dc_;
}

void digital_canceller::cancel_ranges_into(
    std::span<const cplx> tx, std::span<const cplx> rx, cvec& out,
    std::span<const dsp::sample_range> ranges, canceller_scratch& s,
    dsp::workspace_stats* stats) const {
  const std::size_t n = rx.size();
  if (taps_.empty() || tx.empty()) {
    // Degenerate operands copy in O(n) anyway: nothing to skip.
    cancel_into(tx, rx, out, s, stats);
    return;
  }
  dsp::acquire(out, n, stats);
  const std::size_t overlap = std::min(n, tx.size());
  for (const dsp::sample_range& r : ranges) {
    const std::size_t e = std::min(r.end, n);
    const std::size_t b = std::min(r.begin, e);
    if (b >= e) continue;
    const std::size_t eo = std::min(e, overlap);
    if (b < eo)
      dsp::detail::convolve_same_gather_subtract(tx.data(), tx.size(),
                                                 taps_.data(), taps_.size(),
                                                 rx.data(), out.data() + b, b,
                                                 eo);
    for (std::size_t j = std::max(b, overlap); j < e; ++j) out[j] = rx[j];
  }
  // Conjugate and DC branches over the same windows, exactly as in
  // cancel_into's tail restricted per range.
  if (!conj_taps_.empty()) {
    dsp::acquire(s.ctx, tx.size(), stats);
    for (std::size_t i = 0; i < tx.size(); ++i) s.ctx[i] = std::conj(tx[i]);
    for (const dsp::sample_range& r : ranges) {
      const std::size_t e = std::min({r.end, n, tx.size()});
      const std::size_t b = std::min(r.begin, e);
      if (b >= e) continue;
      dsp::convolve_same_range_into(s.ctx, conj_taps_, b, e, s.work2, stats);
      for (std::size_t j = b; j < e; ++j) out[j] -= s.work2[j];
    }
  }
  if (dc_ != cplx{0.0, 0.0}) {
    for (const dsp::sample_range& r : ranges) {
      const std::size_t e = std::min(r.end, n);
      const std::size_t b = std::min(r.begin, e);
      for (std::size_t j = b; j < e; ++j) out[j] -= dc_;
    }
  }
}

void digital_canceller::cancel_quantized_ranges_into(
    std::span<const cplx> tx, std::span<const cplx> analog,
    const adc_config& adc, cvec& digitized, cvec& cleaned, bool& saturated,
    std::span<const dsp::sample_range> ranges, canceller_scratch& s,
    dsp::workspace_stats* stats) const {
  const std::size_t n = analog.size();
  if (taps_.empty() || tx.empty()) {
    cancel_quantized_into(tx, analog, adc, digitized, cleaned, saturated, s,
                          stats);
    return;
  }
  dsp::acquire(digitized, n, stats);
  dsp::acquire(cleaned, n, stats);
  const std::size_t overlap = std::min(n, tx.size());
  unsigned clipped_any = 0;
  constexpr std::size_t kChunk = 256;  // same reorder-window size as the
                                       // full sweep; chunking is invisible
  for (const dsp::sample_range& r : ranges) {
    const std::size_t e = std::min(r.end, n);
    const std::size_t b = std::min(r.begin, e);
    if (b >= e) continue;
    const std::size_t eo = std::min(e, overlap);
    for (std::size_t c0 = b; c0 < eo; c0 += kChunk) {
      const std::size_t c1 = std::min(c0 + kChunk, eo);
      quantize_range_saturation(analog.data(), c0, c1, adc, digitized.data(),
                                clipped_any);
      dsp::detail::convolve_same_gather_subtract(
          tx.data(), tx.size(), taps_.data(), taps_.size(), digitized.data(),
          cleaned.data() + c0, c0, c1);
    }
    if (eo < e) {
      const std::size_t t0 = std::max(b, overlap);
      quantize_range_saturation(analog.data(), t0, e, adc, digitized.data(),
                                clipped_any);
      for (std::size_t j = t0; j < e; ++j) cleaned[j] = digitized[j];
    }
  }
  saturated = clipped_any != 0;
  if (!conj_taps_.empty()) {
    dsp::acquire(s.ctx, tx.size(), stats);
    for (std::size_t i = 0; i < tx.size(); ++i) s.ctx[i] = std::conj(tx[i]);
    for (const dsp::sample_range& r : ranges) {
      const std::size_t e = std::min({r.end, n, tx.size()});
      const std::size_t b = std::min(r.begin, e);
      if (b >= e) continue;
      dsp::convolve_same_range_into(s.ctx, conj_taps_, b, e, s.work2, stats);
      for (std::size_t j = b; j < e; ++j) cleaned[j] -= s.work2[j];
    }
  }
  if (dc_ != cplx{0.0, 0.0}) {
    for (const dsp::sample_range& r : ranges) {
      const std::size_t e = std::min(r.end, n);
      const std::size_t b = std::min(r.begin, e);
      for (std::size_t j = b; j < e; ++j) cleaned[j] -= dc_;
    }
  }
}

void digital_canceller::cancel_quantized_into(std::span<const cplx> tx,
                                              std::span<const cplx> analog,
                                              const adc_config& adc,
                                              cvec& digitized, cvec& cleaned,
                                              bool& saturated,
                                              canceller_scratch& s,
                                              dsp::workspace_stats* stats) const {
  const std::size_t n = analog.size();
  dsp::acquire(digitized, n, stats);
  if (taps_.empty() || tx.empty()) {
    // Degenerate operands keep the two-sweep form: there is no convolution
    // to interleave the divides with.
    quantize_into_saturation(analog, adc, digitized, saturated, stats);
    cancel_into(tx, digitized, cleaned, s, stats);
    return;
  }
  dsp::acquire(cleaned, n, stats);
  const std::size_t overlap = std::min(n, tx.size());
  unsigned clipped_any = 0;
  // Chunks sized so one chunk's quantize (divider-bound) and convolution
  // (FP mul/add-bound) fit a reorder window together: the out-of-order
  // core overlaps the divides of chunk i with the convolution of chunks
  // i-1/i, which a pair of full-capture sweeps can never do.
  constexpr std::size_t kChunk = 256;
  for (std::size_t c0 = 0; c0 < overlap; c0 += kChunk) {
    const std::size_t c1 = std::min(c0 + kChunk, overlap);
    quantize_range_saturation(analog.data(), c0, c1, adc, digitized.data(),
                              clipped_any);
    dsp::detail::convolve_same_gather_subtract(
        tx.data(), tx.size(), taps_.data(), taps_.size(), digitized.data(),
        cleaned.data() + c0, c0, c1);
  }
  if (overlap < n) {
    quantize_range_saturation(analog.data(), overlap, n, adc, digitized.data(),
                              clipped_any);
    for (std::size_t j = overlap; j < n; ++j) cleaned[j] = digitized[j];
  }
  saturated = clipped_any != 0;
  // Conjugate and DC branches act element-wise on the already-cancelled
  // output, exactly as in cancel_into's tail.
  if (!conj_taps_.empty()) {
    dsp::acquire(s.ctx, tx.size(), stats);
    for (std::size_t i = 0; i < tx.size(); ++i) s.ctx[i] = std::conj(tx[i]);
    dsp::convolve_same_into(s.ctx, conj_taps_, s.work2, stats);
    const std::size_t m = std::min(cleaned.size(), s.work2.size());
    for (std::size_t i = 0; i < m; ++i) cleaned[i] -= s.work2[i];
  }
  if (dc_ != cplx{0.0, 0.0})
    for (cplx& v : cleaned) v -= dc_;
}

double cancellation_depth_db(std::span<const cplx> before,
                             std::span<const cplx> after) {
  const double p_before = dsp::mean_power(before);
  const double p_after = std::max(dsp::mean_power(after), 1e-30);
  return dsp::to_db(p_before / p_after);
}

}  // namespace backfi::fd
