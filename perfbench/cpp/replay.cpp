#include "replay.h"

#include <algorithm>

#include "channel/awgn.h"
#include "channel/multipath.h"
#include "dsp/fir.h"
#include "dsp/math_util.h"
#include "dsp/vec_ops.h"
#include "phy/constellation.h"
#include "phy/convolutional.h"
#include "reader/decoder.h"
#include "tag/energy_model.h"
#include "tag/wake_detector.h"

namespace perfbench {

using namespace backfi;

namespace {

// 20 MS/s baseband: samples per microsecond of the tag schedule.
constexpr std::size_t samples_per_us =
    static_cast<std::size_t>(sample_rate_hz / 1e6);

}  // namespace

replay_outcome replay_trial(const sim::scenario_config& config,
                            sim::trial_workspace& ws, span_log* log,
                            std::uint64_t op) {
  sim::validate_or_throw(config, "replay_trial");
  replay_outcome out;
  sim::trial_result& result = out.result;
  scoped_span trial_span(log, layer::trial, op);
  dsp::rng gen(config.seed);

  scoped_span excitation_span(log, layer::excitation, op);
  reader::excitation_config ex_cfg = config.excitation;
  ex_cfg.tag_id = config.tag.id;
  ex_cfg.payload_seed = gen.next_u64();
  reader::build_excitation_into(ex_cfg, ws.ex, &ws.stats);
  const reader::excitation& ex = ws.ex;
  excitation_span.stop();

  scoped_span forward_span(log, layer::channel_forward, op);
  const auto channels = channel::draw_backscatter_channels(
      config.budget, config.tag_distance_m, gen);
  channel::apply_channel_into(ex.samples, channels.h_f, ws.incident, &ws.stats);
  forward_span.stop();

  scoped_span wake_span(log, layer::wake, op);
  const double incident_dbm = channel::incident_power_at_tag_dbm(
      config.budget, config.tag_distance_m);
  const std::size_t wake_window = std::min<std::size_t>(
      (ex_cfg.wake_bits + 4) * samples_per_us, ws.incident.size());
  const auto wake =
      tag::detect_wake(std::span<const cplx>(ws.incident).first(wake_window),
                       ex.wake_preamble, incident_dbm);
  wake_span.stop();
  result.woke = wake.woke;
  if (!wake.woke) return out;

  scoped_span modulate_span(log, layer::modulate, op);
  const std::size_t jitter =
      config.tag_jitter_samples > 0
          ? gen.uniform_int(config.tag_jitter_samples + 1)
          : 0;
  const std::size_t tag_origin = wake.preamble_end_sample + jitter;
  // The trial re-mixes the plan seed with the trial seed.
  impair::impairment_plan faults = config.impairments;
  faults.seed = faults.seed * 0x9e3779b97f4a7c15ULL + config.seed;
  const phy::bitvec payload = gen.random_bits(config.payload_bits);
  const tag::tag_device device(config.tag);
  device.backscatter_into(payload, ex.samples.size(), tag_origin, ws.tag_tx,
                          &ws.stats);
  tag::tag_transmission& tag_tx = ws.tag_tx;
  result.payload_symbols = tag_tx.n_payload_symbols;
  result.tag_energy_pj = tag_tx.energy_pj;
  modulate_span.stop();
  if (tag_tx.n_payload_symbols < device.payload_symbols(config.payload_bits))
    return out;
  {
    scoped_span s(log, layer::impair, op);
    faults.apply_to_reflection(tag_tx.reflection, tag_tx.preamble_start,
                               tag_tx.data_end);
  }

  scoped_span backscatter_span(log, layer::channel_backscatter, op);
  channel::apply_channel_into(ex.samples, channels.h_env, ws.rx, &ws.stats);
  dsp::hadamard_into(ws.incident, tag_tx.reflection, ws.reflected, &ws.stats);
  channel::apply_channel_into(ws.reflected, channels.h_b, ws.backscatter,
                              &ws.stats);
  dsp::add_in_place(ws.rx, ws.backscatter);
  backscatter_span.stop();
  {
    scoped_span s(log, layer::awgn, op);
    channel::add_awgn(ws.rx, channels.noise_power, gen);
  }
  {
    scoped_span s(log, layer::impair, op);
    faults.apply_at_antenna(ws.rx);
  }

  // The packet: what the one-packet stream session inside the trial does.
  scoped_span packet_span(log, layer::packet, op);
  const std::size_t silent_begin = ex.wake_end;
  const std::size_t silent_end =
      silent_begin + config.tag.silent_us * samples_per_us;
  const bool post_cancel = faults.any_post_cancellation();
  out.hooked = faults.any_front_end() || post_cancel;
  scoped_span decoder_setup_span(log, layer::decode, op);
  const reader::backfi_decoder decoder(config.tag, config.decoder);
  fd::receive_chain_config chain_cfg = config.chain;
  chain_cfg.collector = nullptr;
  if (faults.any_front_end()) {
    chain_cfg.front_end_hook = [&faults, log, op](std::span<cplx> samples) {
      scoped_span s(log, layer::impair, op);
      faults.apply_front_end(samples);
    };
  }
  // The session narrows the chain to the decoder's read window unless a
  // post-cancel hook needs the whole cleaned segment.
  if (!post_cancel)
    chain_cfg.roi = decoder.read_window_bounds(ws.rx.size(), ex.wake_end,
                                               config.payload_bits);
  decoder_setup_span.stop();

  scoped_span chain_span(log, layer::receive_chain, op);
  const fd::receive_chain_result chain = fd::run_receive_chain(
      ex.samples, ws.rx, silent_begin, silent_end, chain_cfg, &ws.chain);
  chain_span.stop();
  out.ran_chain = true;
  out.roi_samples_processed = chain.roi_samples_processed;
  out.roi_samples_skipped = chain.roi_samples_skipped;
  if (post_cancel) {
    scoped_span s(log, layer::impair, op);
    faults.apply_post_cancellation(ex.samples, ws.chain.cleaned, silent_end);
  }
  result.cancellation_bypassed = chain.cancellation_bypassed;
  result.link.analog_depth_db = chain.analog_depth_db;
  result.link.total_depth_db = chain.total_depth_db;
  result.link.residual_si_over_noise_db =
      dsp::to_db(std::max(chain.residual_power, 1e-30) /
                 std::max(channels.noise_power, 1e-30));

  scoped_span decode_span(log, layer::decode, op);
  const reader::decode_result decoded =
      decoder.decode(ex.samples, ws.chain.cleaned, ex.wake_end,
                     config.payload_bits, &ws.decoder);
  decode_span.stop();
  packet_span.stop();
  out.sync_attempts = decoded.sync_attempts;
  result.sync_found = decoded.sync_found;
  result.decoded = decoded.decoded;
  result.crc_ok = decoded.crc_ok;
  result.failure = decoded.failure;
  result.link.post_mrc_snr_db = decoded.post_mrc_snr_db;
  result.link.sync_correlation = decoded.sync_correlation;
  result.link.evm_rms = decoded.evm_rms;
  if (decoded.decoded)
    result.bit_errors = phy::hamming_distance(decoded.payload, payload);

  scoped_span slicer_span(log, layer::slicer, op);
  if (decoded.sync_found && !decoded.symbol_estimates.empty()) {
    const auto& constellation =
        phy::psk_constellation(tag::psk_order(config.tag.rate.modulation));
    const std::size_t bps = tag::bits_per_symbol(config.tag.rate.modulation);
    phy::bitvec coded = phy::puncture(phy::conv_encode(tag_tx.info_bits),
                                      config.tag.rate.coding);
    while (coded.size() % bps != 0) coded.push_back(0);
    std::size_t errors = 0;
    for (std::size_t s = 0;
         s < decoded.symbol_estimates.size() && (s + 1) * bps <= coded.size();
         ++s) {
      std::uint32_t tx_label = 0;
      for (std::size_t b = 0; b < bps; ++b)
        tx_label = (tx_label << 1) | (coded[s * bps + b] & 1u);
      if (constellation.slice(decoded.symbol_estimates[s]) != tx_label)
        ++errors;
    }
    result.raw_symbol_errors = errors;
  }
  slicer_span.stop();

  scoped_span oracle_span(log, layer::oracle, op);
  const std::size_t guard = std::min<std::size_t>(
      config.decoder.fb_taps - 1,
      device.samples_per_symbol() > 2 ? device.samples_per_symbol() - 2 : 1);
  // The trial's windowed oracle (oracle_post_mrc_snr_db_ws) spelled out in
  // public calls, writing into the reused ws.oracle_yhat as the trial does.
  {
    const std::size_t end = std::min(tag_tx.data_end, ex.samples.size());
    if (end <= tag_tx.data_start) {
      result.link.expected_snr_db = -120.0;
    } else {
      const double amplitude =
          dsp::db_to_amplitude(-config.tag.insertion_loss_db);
      const cvec h_fb = dsp::convolve(channels.h_f, channels.h_b);
      dsp::convolve_same_range_into(ex.samples, h_fb, tag_tx.data_start, end,
                                    ws.oracle_yhat, &ws.stats);
      const double mean_sig =
          dsp::mean_power(std::span<const cplx>(ws.oracle_yhat)
                              .subspan(tag_tx.data_start,
                                       end - tag_tx.data_start)) *
          amplitude * amplitude;
      const std::size_t usable = device.samples_per_symbol() - guard;
      const double snr = mean_sig * static_cast<double>(usable) /
                         std::max(channels.noise_power, 1e-30);
      result.link.expected_snr_db = dsp::to_db(std::max(snr, 1e-12));
    }
  }
  oracle_span.stop();

  if (result.crc_ok) {
    const double airtime_s =
        static_cast<double>(tag_tx.data_end - tag_tx.silent_start) *
        sample_period_s;
    result.effective_throughput_bps =
        static_cast<double>(config.payload_bits) / airtime_s;
  }
  return out;
}

bool same_outcome(const sim::trial_result& a, const sim::trial_result& b) {
  return a.woke == b.woke && a.sync_found == b.sync_found &&
         a.decoded == b.decoded && a.crc_ok == b.crc_ok &&
         a.failure == b.failure &&
         a.cancellation_bypassed == b.cancellation_bypassed &&
         a.bit_errors == b.bit_errors &&
         a.raw_symbol_errors == b.raw_symbol_errors &&
         a.payload_symbols == b.payload_symbols &&
         a.tag_energy_pj == b.tag_energy_pj &&
         a.effective_throughput_bps == b.effective_throughput_bps &&
         a.link.post_mrc_snr_db == b.link.post_mrc_snr_db &&
         a.link.expected_snr_db == b.link.expected_snr_db &&
         a.link.residual_si_over_noise_db == b.link.residual_si_over_noise_db &&
         a.link.analog_depth_db == b.link.analog_depth_db &&
         a.link.total_depth_db == b.link.total_depth_db &&
         a.link.sync_correlation == b.link.sync_correlation &&
         a.link.evm_rms == b.link.evm_rms;
}

}  // namespace perfbench
