// Two-stage self-interference cancellation (paper Section 4.2, after [12]).
//
// Analog stage: an RF FIR emulation with a small number of taps whose
// coefficients have finite (attenuator/phase-shifter) resolution. It must
// knock the self-interference down enough that the ADC's dynamic range can
// represent the backscatter signal.
//
// Digital stage: full-precision least-squares FIR estimate of the residual
// channel, adapted ONLY during the tag's silent period so the backscatter
// signal itself is never cancelled (the paper's key protocol point).
#pragma once

#include <span>

#include "dsp/linalg.h"
#include "dsp/types.h"
#include "dsp/workspace.h"
#include "fd/adc.h"

namespace backfi::fd {

struct analog_canceller_config {
  std::size_t n_taps = 6;
  /// Coefficient resolution in bits (per I/Q axis) of the tunable
  /// attenuator/phase-shifter network. Limits achievable cancellation.
  /// Must be in [1, 64] (receive_chain_config::validate()).
  std::size_t coefficient_bits = 7;
};

/// Reusable adaptation/cancellation state for both canceller stages (one
/// per worker thread, threaded through receive_chain_scratch). Holds the
/// least-squares fit workspaces and the capture-length intermediates the
/// widely-linear path previously allocated per packet.
struct canceller_scratch {
  dsp::fir_ls_workspace lin;   ///< linear-branch normal equations
  dsp::fir_ls_workspace conj;  ///< conj-branch normal equations
  cvec ctx;                    ///< conj(tx), computed once per adapt/cancel
  cvec work;                   ///< residual / refit target
  cvec work2;                  ///< trial cancellation / conj emulation
};

/// Analog cancellation stage. adapt() tunes the taps from a (tx, rx)
/// training segment; cancel() subtracts the emulated leakage.
class analog_canceller {
 public:
  explicit analog_canceller(const analog_canceller_config& config = {});

  /// Tune taps by least squares over the training segment, then quantize
  /// them to the hardware resolution.
  void adapt(std::span<const cplx> tx, std::span<const cplx> rx);

  /// As adapt(), with a reusable fit workspace (zero-alloc after warm-up).
  /// Bit-identical to the allocating form.
  void adapt(std::span<const cplx> tx, std::span<const cplx> rx,
             dsp::fir_ls_workspace& w, dsp::workspace_stats* stats = nullptr);

  /// rx - tx * taps (same length as rx; tx must be the aligned transmit
  /// samples for the same interval).
  cvec cancel(std::span<const cplx> tx, std::span<const cplx> rx) const;

  /// As cancel(), into a reusable caller buffer and restricted to `ranges`
  /// (disjoint, ascending [begin, end) windows, clamped to len(rx)): out is
  /// sized to len(rx) but only the ranges are written, bit-identical to
  /// cancel() there, and only rx samples inside them are read. The receive
  /// chain passes silent window ∪ decoder ROI here, or [0, len(rx)) when it
  /// runs full-range.
  void cancel_ranges_into(std::span<const cplx> tx, std::span<const cplx> rx,
                          cvec& out,
                          std::span<const dsp::sample_range> ranges,
                          dsp::workspace_stats* stats = nullptr) const;

  const cvec& taps() const { return taps_; }
  bool adapted() const { return !taps_.empty(); }

 private:
  analog_canceller_config config_;
  cvec taps_;
};

struct digital_canceller_config {
  std::size_t n_taps = 8;
  double ridge = 1e-9;
  /// Widely-linear augmentation: also estimate an FIR on conj(tx) and
  /// subtract it. A plain FIR of tx cannot cancel the image the receive
  /// path's IQ imbalance makes of the (60+ dB stronger) self-interference;
  /// the conjugate branch can. Estimated sequentially on the residual.
  bool widely_linear = false;
  /// Estimate and subtract the residual's DC component (front-end DC
  /// offset / LO leakage, which no FIR of a zero-mean tx can produce).
  bool remove_dc = false;
};

/// Digital cancellation stage: unconstrained LS FIR estimate of the
/// residual self-interference channel.
class digital_canceller {
 public:
  explicit digital_canceller(const digital_canceller_config& config = {});

  void adapt(std::span<const cplx> tx, std::span<const cplx> rx);

  /// As adapt(), with reusable scratch (zero-alloc after warm-up). The
  /// linear-only configuration is bit-identical to the allocating form; the
  /// widely-linear branch derives its conj-excitation Gram from the linear
  /// branch's lags (fir_ls_derive_conj) and reuses each branch's Cholesky
  /// factor across the alternating refits, which reassociates the conj
  /// Gram sums — tolerance-level agreement there (see DESIGN.md §9).
  void adapt(std::span<const cplx> tx, std::span<const cplx> rx,
             canceller_scratch& scratch, dsp::workspace_stats* stats = nullptr);

  cvec cancel(std::span<const cplx> tx, std::span<const cplx> rx) const;

  /// As cancel(), into a reusable caller buffer; bit-identical to cancel().
  void cancel_into(std::span<const cplx> tx, std::span<const cplx> rx,
                   cvec& out, dsp::workspace_stats* stats = nullptr) const;

  /// As cancel_into(), with the conj-branch intermediates (conj(tx) and its
  /// emulation) in reusable scratch instead of per-call vectors.
  /// Bit-identical to cancel().
  void cancel_into(std::span<const cplx> tx, std::span<const cplx> rx,
                   cvec& out, canceller_scratch& scratch,
                   dsp::workspace_stats* stats = nullptr) const;

  /// As cancel_into() with scratch, restricted to `ranges` (disjoint,
  /// ascending [begin, end) windows, clamped to len(rx)): out is sized to
  /// len(rx) but only the ranges are written with values bit-identical to
  /// the full sweep — samples outside them are left stale and must not be
  /// read. The receive chain passes silent-window ∪ decoder-ROI here.
  void cancel_ranges_into(std::span<const cplx> tx, std::span<const cplx> rx,
                          cvec& out,
                          std::span<const dsp::sample_range> ranges,
                          canceller_scratch& scratch,
                          dsp::workspace_stats* stats = nullptr) const;

  /// Fused ADC + cancellation sweep: quantizes `analog` through `adc` into
  /// `digitized` (reporting clipping in `saturated`) and subtracts this
  /// canceller's emulated leakage into `cleaned`, in interleaved chunks so
  /// the quantizer's divide chain executes while the FP pipes chew the
  /// cancellation convolution. Both halves process each sample with the
  /// exact per-element sequence of quantize_into_saturation() and
  /// cancel_into() — any chunking is bit-identical to the two full sweeps.
  /// Requires adapt() to have run (it reads the fitted taps).
  void cancel_quantized_into(std::span<const cplx> tx,
                             std::span<const cplx> analog,
                             const adc_config& adc, cvec& digitized,
                             cvec& cleaned, bool& saturated,
                             canceller_scratch& scratch,
                             dsp::workspace_stats* stats = nullptr) const;

  /// As cancel_quantized_into(), restricted to `ranges` (disjoint,
  /// ascending, clamped to len(analog)): only the ranges of `digitized` and
  /// `cleaned` are written — bit-identical to the full sweep there — and
  /// `saturated` reflects clip events from the ranges alone, i.e. from the
  /// samples actually digitized.
  void cancel_quantized_ranges_into(std::span<const cplx> tx,
                                    std::span<const cplx> analog,
                                    const adc_config& adc, cvec& digitized,
                                    cvec& cleaned, bool& saturated,
                                    std::span<const dsp::sample_range> ranges,
                                    canceller_scratch& scratch,
                                    dsp::workspace_stats* stats = nullptr) const;

  const cvec& taps() const { return taps_; }
  const cvec& conjugate_taps() const { return conj_taps_; }
  bool adapted() const { return !taps_.empty(); }

 private:
  digital_canceller_config config_;
  cvec taps_;
  cvec conj_taps_;          ///< widely-linear branch (empty when disabled)
  cplx dc_ = {0.0, 0.0};    ///< estimated residual DC (remove_dc)
};

/// Cancellation depth [dB]: input power over residual power for a segment.
double cancellation_depth_db(std::span<const cplx> before,
                             std::span<const cplx> after);

}  // namespace backfi::fd
