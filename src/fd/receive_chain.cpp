#include "fd/receive_chain.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "dsp/fir.h"
#include "dsp/vec_ops.h"
#include "obs/collector.h"

namespace backfi::fd {

const char* to_string(config_error error) {
  switch (error) {
    case config_error::none: return "none";
    case config_error::zero_analog_taps: return "zero_analog_taps";
    case config_error::zero_coefficient_bits: return "zero_coefficient_bits";
    case config_error::zero_digital_taps: return "zero_digital_taps";
    case config_error::bad_ridge: return "bad_ridge";
    case config_error::bad_adc_bits: return "bad_adc_bits";
    case config_error::bad_agc_headroom: return "bad_agc_headroom";
    case config_error::zero_gain_block: return "zero_gain_block";
    case config_error::bad_coefficient_bits: return "bad_coefficient_bits";
  }
  return "unknown";
}

config_error receive_chain_config::validate() const {
  if (analog.n_taps == 0) return config_error::zero_analog_taps;
  if (analog.coefficient_bits == 0) return config_error::zero_coefficient_bits;
  // The quantization step is max_mag / 2^(bits - 1); past 64 bits the
  // hardware model is meaningless (and the former integer-shift spelling
  // was undefined behaviour there).
  if (analog.coefficient_bits > 64) return config_error::bad_coefficient_bits;
  if (digital.n_taps == 0) return config_error::zero_digital_taps;
  if (!std::isfinite(digital.ridge) || digital.ridge < 0.0)
    return config_error::bad_ridge;
  if (adc.bits == 0 || adc.bits > 32) return config_error::bad_adc_bits;
  if (!std::isfinite(agc_headroom) || agc_headroom <= 0.0)
    return config_error::bad_agc_headroom;
  if (track_residual_gain && gain_block == 0)
    return config_error::zero_gain_block;
  return config_error::none;
}

void validate_or_throw(const receive_chain_config& config, const char* where) {
  const config_error error = config.validate();
  if (error == config_error::none) return;
  std::string message = where;
  message += ": invalid receive_chain_config (";
  message += to_string(error);
  message += ")";
  throw std::invalid_argument(message);
}

namespace {

/// silent_window ∪ roi as up to two disjoint ascending ranges (one when
/// they touch or overlap — the common case, since the decoder's window
/// starts at the silent window's end). Both inputs are already clamped to
/// the capture length; the silent window is non-degenerate here.
std::size_t union_ranges(dsp::sample_range silent, dsp::sample_range roi,
                         std::array<dsp::sample_range, 2>& out) {
  dsp::sample_range lo = silent, hi = roi;
  if (hi.begin < lo.begin) std::swap(lo, hi);
  if (hi.begin <= lo.end) {  // touching/overlapping: one merged range
    out[0] = {lo.begin, std::max(lo.end, hi.end)};
    return 1;
  }
  out[0] = lo;
  out[1] = hi;
  return 2;
}

dsp::sample_range clamp_range(dsp::sample_range r, std::size_t len) {
  return {std::min(r.begin, len), std::min(r.end, len)};
}

}  // namespace

chain_ranges chain_read_ranges(const receive_chain_config& config,
                               dsp::sample_range roi, std::size_t capture_len,
                               std::size_t silent_begin,
                               std::size_t silent_end) {
  chain_ranges out;
  out.ranges[0] = {0, capture_len};
  out.count = 1;
  roi = clamp_range(roi, capture_len);
  // Full-range rules: a degenerate silent window bypasses the chain with a
  // whole-capture copy, a front-end hook mutates the whole analog residual,
  // and residual-gain tracking fits whole-capture statistics.
  const bool degenerate = silent_begin >= silent_end || silent_end > capture_len;
  if (roi.empty() || degenerate || config.front_end_hook ||
      config.track_residual_gain)
    return out;
  out.count = union_ranges({silent_begin, silent_end}, roi, out.ranges);
  return out;
}

namespace {

receive_chain_result run_chain_core(std::span<const cplx> tx,
                                    std::span<const cplx> rx,
                                    std::size_t silent_begin,
                                    std::size_t silent_end,
                                    const receive_chain_config& config,
                                    receive_chain_scratch& scratch) {
  receive_chain_result result;
  cvec& after_analog = scratch.after_analog;
  cvec& digitized = scratch.digitized;
  cvec& cleaned = scratch.cleaned;
  obs::timing_span chain_span(config.collector, "fd.receive_chain");
  // A degenerate adaptation window (or misaligned tx/rx) would train both
  // cancellers on garbage and silently "cancel" the backscatter itself.
  // Flag it and pass the input through untouched instead.
  if (tx.size() != rx.size() || silent_begin >= silent_end ||
      silent_end > rx.size()) {
    result.cancellation_bypassed = true;
    obs::count(config.collector, obs::probe::cancellation_bypassed);
    dsp::acquire(cleaned, rx.size(), scratch.stats);
    std::copy(rx.begin(), rx.end(), cleaned.begin());
    result.residual_power = dsp::mean_power(cleaned);
    return result;
  }

  const auto tx_silent = tx.subspan(silent_begin, silent_end - silent_begin);
  const auto rx_silent = rx.subspan(silent_begin, silent_end - silent_begin);

  // --- Region of interest (see receive_chain_config::roi) ---
  // A ranged chain runs the analog cancel, the ADC and the digital stage
  // only over silent ∪ roi; otherwise they sweep the whole capture. Either
  // way every stage walks the same `sweep` list, so the two cases share
  // one code path.
  const std::size_t capture_len = rx.size();
  const dsp::sample_range roi = clamp_range(config.roi, capture_len);
  const chain_ranges reads =
      chain_read_ranges(config, config.roi, capture_len, silent_begin,
                        silent_end);
  const std::span<const dsp::sample_range> sweep = reads.span();
  const std::size_t silent_len = silent_end - silent_begin;

  // --- Analog stage (before the ADC) ---
  {
    obs::timing_span span(config.collector, "fd.analog");
    if (config.enable_analog) {
      analog_canceller analog(config.analog);
      analog.adapt(tx_silent, rx_silent, scratch.canceller.lin, scratch.stats);
      analog.cancel_ranges_into(tx, rx, after_analog, sweep, scratch.stats);
    } else {
      dsp::acquire(after_analog, capture_len, scratch.stats);
      for (const dsp::sample_range& r : sweep)
        std::copy(rx.begin() + static_cast<std::ptrdiff_t>(r.begin),
                  rx.begin() + static_cast<std::ptrdiff_t>(r.end),
                  after_analog.begin() + static_cast<std::ptrdiff_t>(r.begin));
    }
  }
  result.analog_depth_db = cancellation_depth_db(
      rx_silent, std::span(after_analog).subspan(silent_begin, silent_len));

  // --- Receive front end (downconverter) fault hook ---
  if (config.front_end_hook)
    config.front_end_hook(std::span<cplx>(after_analog));

  // --- AGC + ADC ---
  // The AGC sets its full scale from the analog residual over the silent
  // window only: a real reader fixes its gain before the tag talks, and the
  // ranged and full chains then share the same quantization grid.
  //
  // With both the ADC and the digital stage enabled, only the adaptation
  // window is digitized here: the sweep goes through the digital stage's
  // fused quantize+cancel below, which hides the quantizer's divide chain
  // under the cancellation convolution. Every sample still sees the
  // identical clamp/divide/round/scale sequence, so digitized/cleaned are
  // bit-identical to the split sweeps. adc_saturated is the OR of the clip
  // events of every sample the sweep digitizes.
  const bool fuse_adc_digital = config.enable_adc && config.enable_digital;
  adc_config adc = config.adc;
  if (config.enable_adc) {
    obs::timing_span span(config.collector, "fd.adc");
    adc.full_scale = agc_full_scale(
        std::span(after_analog).subspan(silent_begin, silent_len),
        config.agc_headroom);
    dsp::acquire(digitized, capture_len, scratch.stats);
    if (fuse_adc_digital) {
      unsigned window_clip = 0;  // recomputed over the sweep below
      quantize_range_saturation(after_analog.data(), silent_begin, silent_end,
                                adc, digitized.data(), window_clip);
    } else {
      unsigned clipped_any = 0;
      for (const dsp::sample_range& r : sweep)
        quantize_range_saturation(after_analog.data(), r.begin, r.end, adc,
                                  digitized.data(), clipped_any);
      result.adc_saturated = clipped_any != 0;
      if (result.adc_saturated)
        obs::count(config.collector, obs::probe::adc_saturated);
    }
  } else {
    // O(1) buffer exchange: after_analog's storage becomes next call's
    // scratch; its contents are stale from here on.
    std::swap(digitized, after_analog);
  }

  // --- Digital stage (adapted on the silent period only) ---
  {
    obs::timing_span span(config.collector, "fd.digital");
    if (config.enable_digital) {
      digital_canceller digital(config.digital);
      digital.adapt(tx_silent,
                    std::span(digitized).subspan(silent_begin, silent_len),
                    scratch.canceller, scratch.stats);
      if (fuse_adc_digital) {
        digital.cancel_quantized_ranges_into(
            tx, after_analog, adc, digitized, cleaned, result.adc_saturated,
            sweep, scratch.canceller, scratch.stats);
        if (result.adc_saturated)
          obs::count(config.collector, obs::probe::adc_saturated);
      } else {
        digital.cancel_ranges_into(tx, digitized, cleaned, sweep,
                                   scratch.canceller, scratch.stats);
      }
    } else {
      std::swap(cleaned, digitized);
    }
  }

  // --- Residual gain tracking (see receive_chain_config) ---
  // Tracks against the DIGITAL stage's SI model (digitized - cleaned): the
  // front end sits after the analog canceller, so every LO/IQ blemish acts
  // on the analog residual, whose tx-correlated part is exactly what the
  // digital taps captured on the silent window.
  //
  // Two passes:
  //  1. A single widely-linear (a, conj) fit over the WHOLE buffer. The IQ
  //     image coefficient of the front end is static, and while the
  //     BPSK-subcarrier OFDM excitation is strongly improper over any one
  //     symbol (the E[x^2] comb makes model and conjugate near-collinear
  //     per block), the comb lands on the null DC/Nyquist subcarriers when
  //     averaged over the full packet — globally the 2x2 solve is well
  //     conditioned even though per-block it is not.
  //  2. A per-block complex gain on the model alone, linearly interpolated
  //     between block centres: absorbs LO rotation (CFO/phase noise) that
  //     is locally linear in time, leaving only second-order residue.
  // The backscatter's projection on the model is ~SI - 90 dB, so neither
  // pass touches the tag signal.
  if (config.track_residual_gain && config.enable_digital &&
      cleaned.size() > 1) {
    const std::size_t n = cleaned.size();
    // Pass 1 statistics: static widely-linear residual fit.
    cplx a0, b0;
    {
      double p = 0.0;     // sum |m|^2
      cplx s{0.0, 0.0};   // sum conj(m)^2 — cross term of the two columns
      cplx r1{0.0, 0.0};  // sum cleaned * conj(m)
      cplx r2{0.0, 0.0};  // sum cleaned * m
      for (std::size_t i = 0; i < n; ++i) {
        const cplx m = digitized[i] - cleaned[i];
        p += std::norm(m);
        s += std::conj(m * m);
        r1 += cleaned[i] * std::conj(m);
        r2 += cleaned[i] * m;
      }
      const double loaded = p * (1.0 + 1e-3) + 1e-30;
      const double det = loaded * loaded - std::norm(s);
      a0 = (loaded * r1 - s * r2) / det;
      b0 = (loaded * r2 - std::conj(s) * r1) / det;
    }
    // Fused sweep: apply the pass-1 correction and accumulate the pass-2
    // per-block statistics in the same pass over the capture. Each sample's
    // post-correction model m' = digitized[i] - cleaned'[i] depends only on
    // that sample, and the block statistics accumulate in the same
    // ascending order as the former separate sweeps, so the fusion is
    // bit-identical — it just stops re-reading digitized/cleaned a third
    // time (each former pass recomputed m from scratch).
    const std::size_t block = std::max<std::size_t>(config.gain_block, 2);
    const std::size_t n_blocks = (n + block - 1) / block;
    dsp::acquire(scratch.gain_a, n_blocks, scratch.stats);
    scratch.centre.resize(n_blocks);
    cvec& gain_a = scratch.gain_a;
    std::vector<double>& centre = scratch.centre;
    for (std::size_t b = 0; b < n_blocks; ++b) {
      const std::size_t begin = b * block;
      const std::size_t end = std::min(begin + block, n);
      double p = 0.0;
      cplx r1{0.0, 0.0};
      for (std::size_t i = begin; i < end; ++i) {
        const cplx m = digitized[i] - cleaned[i];
        cleaned[i] -= a0 * m + b0 * std::conj(m);
        const cplx m2 = digitized[i] - cleaned[i];
        p += std::norm(m2);
        r1 += cleaned[i] * std::conj(m2);
      }
      gain_a[b] = r1 / (p * (1.0 + 1e-3) + 1e-30);
      centre[b] = 0.5 * static_cast<double>(begin + end - 1);
    }
    // Pass 3: interpolated gain application. Unlike passes 1-2 (whole-
    // capture statistics by definition), this sweep only writes samples,
    // each a pure function of its own index — so it honours the roi when
    // one is set: samples outside silent ∪ roi stay pass-1-corrected,
    // which the roi contract marks unreadable anyway.
    const std::array<dsp::sample_range, 1> full_range{{{0, n}}};
    std::array<dsp::sample_range, 2> roi_union{};
    const std::span<const dsp::sample_range> apply_ranges =
        roi.empty() || config.front_end_hook
            ? std::span<const dsp::sample_range>(full_range)
            : std::span<const dsp::sample_range>(
                  roi_union.data(),
                  union_ranges({silent_begin, silent_end}, roi, roi_union));
    for (const dsp::sample_range& ar : apply_ranges) {
      const std::size_t end = std::min(ar.end, n);
      for (std::size_t i = ar.begin; i < end; ++i) {
        const double pos = static_cast<double>(i);
        std::size_t b = std::min(i / block, n_blocks - 1);
        cplx a;
        if (pos <= centre[0] || n_blocks == 1) {
          a = gain_a[0];
        } else if (pos >= centre[n_blocks - 1]) {
          a = gain_a[n_blocks - 1];
        } else {
          if (pos < centre[b] && b > 0) --b;
          const std::size_t hi = std::min(b + 1, n_blocks - 1);
          const double span_len = centre[hi] - centre[b];
          const double frac =
              span_len > 0.0 ? (pos - centre[b]) / span_len : 0.0;
          a = gain_a[b] + (gain_a[hi] - gain_a[b]) * frac;
        }
        const cplx m = digitized[i] - cleaned[i];
        cleaned[i] -= a * m;
      }
    }
  }

  const auto cleaned_silent =
      std::span(cleaned).subspan(silent_begin, silent_end - silent_begin);
  result.total_depth_db = cancellation_depth_db(rx_silent, cleaned_silent);
  result.residual_power = dsp::mean_power(cleaned_silent);
  obs::observe(config.collector, obs::probe::analog_depth_db,
               result.analog_depth_db);
  obs::observe(config.collector, obs::probe::total_depth_db,
               result.total_depth_db);

  // ROI accounting: only emitted when a roi was configured, so the
  // roi-unset export (runtime gauges included) stays byte-identical to the
  // pre-ROI chain. runtime.*-prefixed gauges are excluded from the
  // deterministic telemetry digests by convention.
  if (!roi.empty()) {
    std::size_t processed = 0;
    for (const dsp::sample_range& r : sweep) processed += r.size();
    result.roi_samples_processed = processed;
    result.roi_samples_skipped = capture_len - processed;
    if (config.collector != nullptr) {
      config.collector->set_gauge("runtime.chain.roi.samples_processed",
                                  static_cast<double>(processed));
      config.collector->set_gauge(
          "runtime.chain.roi.samples_skipped",
          static_cast<double>(result.roi_samples_skipped));
      config.collector->set_gauge(
          "runtime.chain.roi.coverage",
          static_cast<double>(processed) / static_cast<double>(capture_len));
    }
  }
  return result;
}

}  // namespace

receive_chain_result run_receive_chain(std::span<const cplx> tx,
                                       std::span<const cplx> rx,
                                       std::size_t silent_begin,
                                       std::size_t silent_end,
                                       const receive_chain_config& config,
                                       receive_chain_scratch* scratch) {
  validate_or_throw(config, "run_receive_chain");
  if (scratch != nullptr) {
    return run_chain_core(tx, rx, silent_begin, silent_end, config, *scratch);
  }
  receive_chain_scratch local;
  receive_chain_result result =
      run_chain_core(tx, rx, silent_begin, silent_end, config, local);
  result.cleaned = std::move(local.cleaned);
  return result;
}

}  // namespace backfi::fd
