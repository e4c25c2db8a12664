// Ranged capture synthesis: run_backscatter_trial synthesizes the received
// signal only over the samples its one-packet session reads (silent window
// ∪ the decoder's read window on the fault-free path), and modulates the
// excitation's DATA symbols only where that synthesis, the chain and the
// oracle read them. These tests pin
// every trial_result field against a full-synthesis reference built from
// public calls — the full excitation, every rx sample synthesized, then
// the same session — over the fig08 range × preamble grid, every fault
// class, and with the unsynthesized samples of the trial's buffers (the
// unmodulated excitation samples too) poisoned to NaN.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "channel/awgn.h"
#include "dsp/math_util.h"
#include "dsp/vec_ops.h"
#include "obs/collector.h"
#include "phy/constellation.h"
#include "phy/convolutional.h"
#include "reader/stream_session.h"
#include "sim/backscatter_sim.h"
#include "sim/rate_adaptation.h"
#include "tag/wake_detector.h"

namespace backfi::sim {
namespace {

constexpr std::size_t samples_per_us = 20;

// The trial spelled out in public calls with a full-length capture: the
// channels, the tag reflection, the AWGN and the antenna faults cover every
// sample. `restrict_to_roi` picks the session's chain mode; the trial
// result must not depend on it.
trial_result reference_trial(const scenario_config& config,
                             bool restrict_to_roi) {
  trial_result result;
  dsp::rng gen(config.seed);
  reader::excitation_config ex_cfg = config.excitation;
  ex_cfg.tag_id = config.tag.id;
  ex_cfg.payload_seed = gen.next_u64();
  const reader::excitation ex = reader::build_excitation(ex_cfg);
  const auto channels = channel::draw_backscatter_channels(
      config.budget, config.tag_distance_m, gen);
  const cvec incident = channel::apply_channel(ex.samples, channels.h_f);
  const std::size_t wake_window = std::min<std::size_t>(
      (ex_cfg.wake_bits + 4) * samples_per_us, incident.size());
  const auto wake = tag::detect_wake(
      std::span(incident).first(wake_window), ex.wake_preamble,
      channel::incident_power_at_tag_dbm(config.budget, config.tag_distance_m));
  result.woke = wake.woke;
  if (!wake.woke) return result;
  const std::size_t jitter =
      config.tag_jitter_samples > 0
          ? gen.uniform_int(config.tag_jitter_samples + 1)
          : 0;
  impair::impairment_plan faults = config.impairments;
  faults.seed = faults.seed * 0x9e3779b97f4a7c15ULL + config.seed;
  const phy::bitvec payload = gen.random_bits(config.payload_bits);
  const tag::tag_device device(config.tag);
  tag::tag_transmission tag_tx = device.backscatter(
      payload, ex.samples.size(), wake.preamble_end_sample + jitter);
  result.payload_symbols = tag_tx.n_payload_symbols;
  result.tag_energy_pj = tag_tx.energy_pj;
  if (tag_tx.n_payload_symbols < device.payload_symbols(config.payload_bits))
    return result;
  faults.apply_to_reflection(tag_tx.reflection, tag_tx.preamble_start,
                             tag_tx.data_end);

  cvec rx = channel::apply_channel(ex.samples, channels.h_env);
  const cvec reflected = dsp::hadamard(incident, tag_tx.reflection);
  dsp::add_in_place(rx, channel::apply_channel(reflected, channels.h_b));
  channel::add_awgn(rx, channels.noise_power, gen);
  faults.apply_at_antenna(rx);

  const std::size_t silent_end =
      ex.wake_end + config.tag.silent_us * samples_per_us;
  reader::stream_config stream_cfg;
  stream_cfg.tag = config.tag;
  stream_cfg.decoder = config.decoder;
  stream_cfg.chain = config.chain;
  if (faults.any_front_end()) {
    stream_cfg.chain.front_end_hook = [&faults](std::span<cplx> samples) {
      faults.apply_front_end(samples);
    };
  }
  if (faults.any_post_cancellation()) {
    stream_cfg.post_cancel_hook = [&faults](std::span<const cplx> tx,
                                            std::span<cplx> cleaned,
                                            std::size_t window_end) {
      faults.apply_post_cancellation(tx, cleaned, window_end);
    };
  }
  stream_cfg.restrict_to_roi = restrict_to_roi;
  stream_cfg.emit_stream_metrics = false;
  const reader::stream_packet packet{.begin = 0,
                                     .end = rx.size(),
                                     .wake_end = ex.wake_end,
                                     .silent_end = silent_end,
                                     .payload_bits = config.payload_bits};
  reader::stream_session session(ex.samples, rx, std::span(&packet, 1),
                                 stream_cfg);
  session.finish();
  const fd::receive_chain_result& chain = session.results()[0].chain;
  const reader::decode_result& decoded = session.results()[0].decoded;
  result.cancellation_bypassed = chain.cancellation_bypassed;
  result.link.analog_depth_db = chain.analog_depth_db;
  result.link.total_depth_db = chain.total_depth_db;
  result.link.residual_si_over_noise_db =
      dsp::to_db(std::max(chain.residual_power, 1e-30) /
                 std::max(channels.noise_power, 1e-30));
  result.sync_found = decoded.sync_found;
  result.decoded = decoded.decoded;
  result.crc_ok = decoded.crc_ok;
  result.failure = decoded.failure;
  result.link.post_mrc_snr_db = decoded.post_mrc_snr_db;
  result.link.sync_correlation = decoded.sync_correlation;
  result.link.evm_rms = decoded.evm_rms;
  if (decoded.decoded)
    result.bit_errors = phy::hamming_distance(decoded.payload, payload);
  if (decoded.sync_found && !decoded.symbol_estimates.empty()) {
    // The coded stream re-encoded from the info bits, independently of the
    // copy the tag keeps.
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
      std::uint32_t label = 0;
      for (std::size_t b = 0; b < bps; ++b)
        label = (label << 1) | (coded[s * bps + b] & 1u);
      if (constellation.slice(decoded.symbol_estimates[s]) != label) ++errors;
    }
    result.raw_symbol_errors = errors;
  }
  const std::size_t sps = device.samples_per_symbol();
  const std::size_t guard =
      std::min<std::size_t>(config.decoder.fb_taps - 1, sps > 2 ? sps - 2 : 1);
  result.link.expected_snr_db = oracle_post_mrc_snr_db(
      ex.samples, channels, dsp::db_to_amplitude(-config.tag.insertion_loss_db),
      sps, guard, tag_tx.data_start, tag_tx.data_end);
  if (result.crc_ok)
    result.effective_throughput_bps =
        static_cast<double>(config.payload_bits) /
        (static_cast<double>(tag_tx.data_end - tag_tx.silent_start) *
         sample_period_s);
  return result;
}

void expect_same_trial(const trial_result& a, const trial_result& b,
                       const std::string& what) {
  EXPECT_EQ(a.woke, b.woke) << what;
  EXPECT_EQ(a.sync_found, b.sync_found) << what;
  EXPECT_EQ(a.decoded, b.decoded) << what;
  EXPECT_EQ(a.crc_ok, b.crc_ok) << what;
  EXPECT_EQ(a.failure, b.failure) << what;
  EXPECT_EQ(a.cancellation_bypassed, b.cancellation_bypassed) << what;
  EXPECT_EQ(a.bit_errors, b.bit_errors) << what;
  EXPECT_EQ(a.raw_symbol_errors, b.raw_symbol_errors) << what;
  EXPECT_EQ(a.payload_symbols, b.payload_symbols) << what;
  EXPECT_EQ(a.tag_energy_pj, b.tag_energy_pj) << what;
  EXPECT_EQ(a.effective_throughput_bps, b.effective_throughput_bps) << what;
  EXPECT_EQ(a.link.post_mrc_snr_db, b.link.post_mrc_snr_db) << what;
  EXPECT_EQ(a.link.expected_snr_db, b.link.expected_snr_db) << what;
  EXPECT_EQ(a.link.residual_si_over_noise_db, b.link.residual_si_over_noise_db)
      << what;
  EXPECT_EQ(a.link.analog_depth_db, b.link.analog_depth_db) << what;
  EXPECT_EQ(a.link.total_depth_db, b.link.total_depth_db) << what;
  EXPECT_EQ(a.link.sync_correlation, b.link.sync_correlation) << what;
  EXPECT_EQ(a.link.evm_rms, b.link.evm_rms) << what;
}

// The fig08 grid scenario at one operating point.
scenario_config fig08_point(double distance_m, std::size_t preamble_us,
                            const tag::tag_rate_config& rate,
                            std::uint64_t seed) {
  scenario_config base;
  base.excitation.ppdu_bytes = 4000;
  base.payload_bits = 600;
  base.tag.preamble_us = preamble_us;
  scenario_config cfg = scenario_for_point(base, rate, distance_m);
  cfg.seed = seed;
  return cfg;
}

const tag::tag_rate_config kRates[] = {
    {tag::tag_modulation::psk16, phy::code_rate::two_thirds, 2.5e6},
    {tag::tag_modulation::bpsk, phy::code_rate::half, 0.5e6},
};

TEST(RangedSynthesisTest, Fig08GridMatchesFullSynthesisReference) {
  for (const double d : {0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}) {
    for (const std::size_t pre : {32u, 96u}) {
      for (const auto& rate : kRates) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
          const scenario_config cfg = fig08_point(d, pre, rate, seed);
          const std::string what =
              std::to_string(d) + " m, " + std::to_string(pre) + " us, " +
              tag::modulation_name(rate.modulation) + ", seed " +
              std::to_string(seed);
          const trial_result ranged = run_backscatter_trial(cfg);
          expect_same_trial(ranged, reference_trial(cfg, true), what);
          if (seed == 1)
            expect_same_trial(ranged, reference_trial(cfg, false),
                              what + " (roi off)");
        }
      }
    }
  }
}

TEST(RangedSynthesisTest, FaultClassesMatchFullSynthesisReference) {
  // Tag-only faults keep the ranged synthesis; faults that touch rx (at
  // the antenna, in the front end, after cancellation) take the full one.
  for (const impair::fault_class fault : impair::all_fault_classes()) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      scenario_config cfg = fig08_point(2.0, 32, kRates[0], seed);
      cfg.impairments = impair::plan_for(fault, 1.0, seed);
      const std::string what = std::string(impair::fault_class_name(fault)) +
                               ", seed " + std::to_string(seed);
      expect_same_trial(run_backscatter_trial(cfg), reference_trial(cfg, true),
                        what);
    }
  }
}

// Long packets synthesize their read ranges in many tiles: at 100 kHz and
// 10 kHz the read window spans tens of tiles, each range ends in a partial
// tile, and the antenna-domain faults read the whole capture, a range that
// starts at sample 0 (where the reflected tile's h_b history is clipped).
// Every field must still equal the whole-capture reference.
TEST(RangedSynthesisTest, LongPacketTilesMatchFullSynthesisReference) {
  const tag::tag_rate_config long_rates[] = {
      {tag::tag_modulation::qpsk, phy::code_rate::half, 100e3},
      {tag::tag_modulation::bpsk, phy::code_rate::half, 10e3},
  };
  for (const auto& rate : long_rates) {
    for (const double d : {2.0, 7.0}) {
      for (const std::uint64_t seed : {1u, 2u}) {
        scenario_config cfg = fig08_point(d, 32, rate, seed);
        obs::collector c;
        cfg.collector = &c;
        const trial_result tiled = run_backscatter_trial(cfg);
        cfg.collector = nullptr;
        const std::string what = std::to_string(rate.symbol_rate_hz) +
                                 " Hz, " + std::to_string(d) + " m, seed " +
                                 std::to_string(seed);
        expect_same_trial(tiled, reference_trial(cfg, true), what);
        if (!tiled.woke) continue;
        const auto& gauges = c.registry().gauges();
        const auto it = gauges.find("runtime.sim.rx_samples_synthesized");
        ASSERT_NE(it, gauges.end()) << what;
        EXPECT_GT(it->second.value, 8.0 * 4096) << what;
      }
    }
    for (const impair::fault_class fault :
         {impair::fault_class::adc_saturation_bursts,
          impair::fault_class::wifi_interferer}) {
      scenario_config cfg = fig08_point(2.0, 32, rate, 1);
      cfg.impairments = impair::plan_for(fault, 1.0, 1);
      ASSERT_TRUE(cfg.impairments.any_at_antenna());
      expect_same_trial(run_backscatter_trial(cfg), reference_trial(cfg, true),
                        std::string(impair::fault_class_name(fault)) + ", " +
                            std::to_string(rate.symbol_rate_hz) + " Hz");
    }
  }
}

// Every trial buffer poisoned to NaN before the trial, the excitation
// included: the trial must rewrite whatever it reads, the capture samples
// it leaves NaN are exactly the ones outside silent ∪ read window, and
// most of the excitation's DATA samples stay unmodulated.
TEST(RangedSynthesisTest, UnsynthesizedSamplesArePoisonProof) {
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double d : {0.5, 2.0, 5.0, 7.0}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const scenario_config cfg = fig08_point(d, 32, kRates[0], seed);
      trial_workspace ws;
      run_backscatter_trial(cfg, ws);  // sizes every buffer for this shape
      for (cvec* buffer : {&ws.ex.samples, &ws.rx, &ws.incident,
                           &ws.reflected, &ws.backscatter})
        std::fill(buffer->begin(), buffer->end(), cplx{nan, nan});
      const std::string what =
          std::to_string(d) + " m, seed " + std::to_string(seed);
      const trial_result poisoned = run_backscatter_trial(cfg, ws);
      expect_same_trial(poisoned, reference_trial(cfg, true), what);
      if (!poisoned.woke) continue;
      // The chain's read set: silent window ∪ the decoder's read window.
      const std::size_t n = ws.rx.size();
      const reader::backfi_decoder decoder(cfg.tag, cfg.decoder);
      const dsp::sample_range roi =
          decoder.read_window_bounds(n, ws.ex.wake_end, cfg.payload_bits);
      const std::size_t silent_end =
          ws.ex.wake_end + cfg.tag.silent_us * samples_per_us;
      std::size_t unread = 0, still_nan = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const bool read = (i >= ws.ex.wake_end && i < silent_end) ||
                          (i >= roi.begin && i < roi.end);
        unread += read ? 0 : 1;
        still_nan += std::isnan(ws.rx[i].real()) ? 1 : 0;
        if (read) {
          ASSERT_FALSE(std::isnan(ws.rx[i].real())) << what << " @" << i;
        }
      }
      EXPECT_GT(unread, n / 2) << what;
      EXPECT_EQ(still_nan, unread) << what;
      std::size_t excitation_nan = 0;
      for (const cplx& v : ws.ex.samples)
        excitation_nan += std::isnan(v.real()) ? 1 : 0;
      EXPECT_GT(excitation_nan, n / 2) << what;
    }
  }
}

// The oracle reads the tag's data window. A late tag (wide jitter) and a
// decoder that searches no timing offsets push that window past the
// decoder's read window: those excitation samples must still be modulated.
TEST(RangedSynthesisTest, OracleWindowPastReadWindowIsPoisonProof) {
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  std::size_t past_read_window = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    scenario_config cfg = fig08_point(2.0, 32, kRates[0], seed);
    cfg.tag_jitter_samples = 160;
    cfg.decoder.timing_search = 0;
    trial_workspace ws;
    run_backscatter_trial(cfg, ws);
    for (cvec* buffer : {&ws.ex.samples, &ws.rx, &ws.incident,
                         &ws.reflected, &ws.backscatter})
      std::fill(buffer->begin(), buffer->end(), cplx{nan, nan});
    const std::string what = "seed " + std::to_string(seed);
    const trial_result poisoned = run_backscatter_trial(cfg, ws);
    expect_same_trial(poisoned, reference_trial(cfg, true), what);
    if (!poisoned.woke) continue;
    const reader::backfi_decoder decoder(cfg.tag, cfg.decoder);
    const dsp::sample_range roi = decoder.read_window_bounds(
        ws.rx.size(), ws.ex.wake_end, cfg.payload_bits);
    past_read_window += ws.tag_tx.data_end > roi.end + 80 ? 1 : 0;
  }
  EXPECT_GT(past_read_window, 3u);
}

}  // namespace
}  // namespace backfi::sim
