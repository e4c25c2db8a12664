#include "sim/backscatter_sim.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "channel/awgn.h"
#include "dsp/fir.h"
#include "dsp/math_util.h"
#include "dsp/vec_ops.h"
#include "reader/stream_session.h"
#include "sim/parallel.h"
#include "sim/scheduler.h"
#include "tag/wake_detector.h"

namespace backfi::sim {

namespace {
constexpr std::size_t samples_per_us = 20;
// Received samples synthesized per tile: the tile's incident, reflected and
// backscatter buffers (64 KiB each) stay in L2 next to the x and rx slices
// they read and write.
constexpr std::size_t synthesis_tile_samples = 4096;
}  // namespace

const char* to_string(config_error error) {
  switch (error) {
    case config_error::none: return "none";
    case config_error::zero_payload: return "zero_payload";
    case config_error::bad_distance: return "bad_distance";
    case config_error::bad_symbol_rate: return "bad_symbol_rate";
    case config_error::zero_channel_taps: return "zero_channel_taps";
    case config_error::bad_sync_threshold: return "bad_sync_threshold";
    case config_error::empty_excitation: return "empty_excitation";
    case config_error::bad_bandwidth: return "bad_bandwidth";
    case config_error::bad_decoder_config: return "bad_decoder_config";
    case config_error::bad_chain_config: return "bad_chain_config";
    case config_error::zero_stream_packets: return "zero_stream_packets";
    case config_error::bad_stream_threads: return "bad_stream_threads";
    case config_error::bad_stream_queue: return "bad_stream_queue";
    case config_error::bad_drift: return "bad_drift";
  }
  return "unknown";
}

config_error scenario_config::validate() const {
  if (payload_bits == 0) return config_error::zero_payload;
  if (!std::isfinite(tag_distance_m) || tag_distance_m <= 0.0)
    return config_error::bad_distance;
  if (!std::isfinite(tag.rate.symbol_rate_hz) ||
      tag.rate.symbol_rate_hz <= 0.0 ||
      tag.rate.symbol_rate_hz > sample_rate_hz / 2.0)
    return config_error::bad_symbol_rate;
  // Delegate the sub-config checks to their own validators; the two
  // decoder violations this enum predates keep their original values.
  switch (decoder.validate()) {
    case reader::config_error::none: break;
    case reader::config_error::zero_channel_taps:
      return config_error::zero_channel_taps;
    case reader::config_error::bad_sync_threshold:
      return config_error::bad_sync_threshold;
    default: return config_error::bad_decoder_config;
  }
  if (chain.validate() != fd::config_error::none)
    return config_error::bad_chain_config;
  if (excitation.n_ppdus == 0) return config_error::empty_excitation;
  if (!(budget.bandwidth_hz > 0.0)) return config_error::bad_bandwidth;
  return config_error::none;
}

void validate_or_throw(const scenario_config& config, const char* where) {
  const config_error error = config.validate();
  if (error == config_error::none) return;
  std::string message = where;
  message += ": invalid scenario_config (";
  message += to_string(error);
  message += ")";
  throw std::invalid_argument(message);
}

namespace {

// Windowed oracle core: only [data_begin, end) of the combined-channel
// estimate is ever read, so the convolution is evaluated on that range alone
// (bit-identical there to the full convolve_same) into a reusable buffer.
double oracle_post_mrc_snr_db_ws(std::span<const cplx> x,
                                 const channel::backscatter_channels& channels,
                                 double reflection_amplitude,
                                 std::size_t samples_per_symbol,
                                 std::size_t guard, std::size_t data_begin,
                                 std::size_t data_end, cvec& yhat,
                                 dsp::workspace_stats* stats) {
  const std::size_t end = std::min(data_end, x.size());
  if (end <= data_begin) return -120.0;
  const cvec h_fb = dsp::convolve(channels.h_f, channels.h_b);
  dsp::convolve_same_range_into(x, h_fb, data_begin, end, yhat, stats);
  const double mean_sig =
      dsp::mean_power(
          std::span<const cplx>(yhat).subspan(data_begin, end - data_begin)) *
      reflection_amplitude * reflection_amplitude;
  const std::size_t usable = samples_per_symbol - guard;
  const double snr =
      mean_sig * static_cast<double>(usable) / std::max(channels.noise_power, 1e-30);
  return dsp::to_db(std::max(snr, 1e-12));
}

// Publish the workspace reuse counters (cumulative over the thread's
// trials; reuse_pct converges to ~100 once every buffer has warmed up).
// They are execution-dependent (workspace state outlives trials and
// differs per lane), so they live under runtime.* — excluded from the
// deterministic export profile alongside timing.*.
void report_workspace_gauges(obs::collector* c, const dsp::workspace_stats& s) {
  if (!c) return;
  c->set_gauge("runtime.workspace.bytes_reused",
               static_cast<double>(s.bytes_reused));
  c->set_gauge("runtime.workspace.bytes_allocated",
               static_cast<double>(s.bytes_allocated));
  c->set_gauge("runtime.workspace.reuse_pct", 100.0 * s.reuse_fraction());
}

}  // namespace

double oracle_post_mrc_snr_db(std::span<const cplx> x,
                              const channel::backscatter_channels& channels,
                              double reflection_amplitude,
                              std::size_t samples_per_symbol, std::size_t guard,
                              std::size_t data_begin, std::size_t data_end) {
  cvec yhat;
  return oracle_post_mrc_snr_db_ws(x, channels, reflection_amplitude,
                                   samples_per_symbol, guard, data_begin,
                                   data_end, yhat, nullptr);
}

trial_workspace& local_trial_workspace() {
  thread_local trial_workspace workspace;
  return workspace;
}

trial_batch& local_trial_batch() {
  thread_local trial_batch batch;
  return batch;
}

trial_result run_backscatter_trial(const scenario_config& config) {
  return run_backscatter_trial(config, local_trial_workspace());
}

trial_result run_backscatter_trial(const scenario_config& config,
                                   trial_workspace& ws) {
  validate_or_throw(config, "run_backscatter_trial");
  trial_result result;
  obs::collector* const c = config.collector;
  obs::timing_span trial_span(c, "sim.trial");
  obs::count(c, obs::probe::trials);
  dsp::rng gen(config.seed);

  // --- Excitation and channels ---
  // Stage spans below close the probe gap between sim.trial and the
  // fd/reader spans: every contiguous region of the trial body has its own
  // top-level timing span, so the stage means sum to the trial mean.
  //
  // The excitation is built in two halves. The payload-independent samples
  // (wake pulses, each PPDU's preamble + SIGNAL) come first: the tag wakes
  // on them. The payload's DATA symbols follow once the trial knows which
  // samples it reads (below). One paused span times both halves.
  obs::timing_span excitation_span(c, "reader.excitation");
  reader::excitation_config ex_cfg = config.excitation;
  ex_cfg.tag_id = config.tag.id;
  ex_cfg.payload_seed = gen.next_u64();
  reader::prepare_excitation_into(ex_cfg, ws.ex, &ws.stats);
  const reader::excitation& ex = ws.ex;
  excitation_span.pause();

  obs::timing_span forward_span(c, "channel.forward");
  const auto channels =
      channel::draw_backscatter_channels(config.budget, config.tag_distance_m, gen);

  // --- Tag side: wake detection on the incident signal ---
  // Only the wake window of the incident signal is synthesized here; the
  // backscatter synthesis below adds what the received samples need. The
  // wake window ends 4 us into PPDU 0's preamble, so it reads only
  // prepared samples.
  const std::size_t n = ex.samples.size();
  const std::size_t wake_window =
      std::min<std::size_t>((ex_cfg.wake_bits + 4) * samples_per_us, n);
  // ws.incident, ws.reflected and ws.backscatter are tile buffers: one tile
  // plus the h_b history the reflection convolution reaches back over (the
  // incident buffer first holds the wake window).
  const std::size_t reflected_history = channels.h_b.size() - 1;
  const std::size_t tile_span = synthesis_tile_samples + reflected_history;
  dsp::acquire(ws.incident, std::max(wake_window, tile_span), &ws.stats);
  dsp::convolve_same_window(ex.samples, channels.h_f, 0,
                            std::span(ws.incident).first(wake_window));
  forward_span.stop();
  obs::timing_span modulate_span(c, "tag.modulate");
  const double incident_dbm =
      channel::incident_power_at_tag_dbm(config.budget, config.tag_distance_m);
  const auto wake = tag::detect_wake(std::span(ws.incident).first(wake_window),
                                     ex.wake_preamble, incident_dbm);
  result.woke = wake.woke;
  if (!wake.woke) {
    report_workspace_gauges(c, ws.stats);
    return result;
  }
  obs::count(c, obs::probe::trials_woke);

  const std::size_t jitter =
      config.tag_jitter_samples > 0
          ? gen.uniform_int(config.tag_jitter_samples + 1)
          : 0;
  const std::size_t tag_origin = wake.preamble_end_sample + jitter;

  // Per-trial impairment stream: re-mix the plan seed with the trial seed
  // so campaign sweeps draw independent burst/jitter realizations.
  impair::impairment_plan faults = config.impairments;
  faults.seed = faults.seed * 0x9e3779b97f4a7c15ULL + config.seed;

  // --- Tag backscatter ---
  const phy::bitvec payload = gen.random_bits(config.payload_bits);
  const tag::tag_device device(config.tag);
  device.backscatter_into(payload, n, tag_origin, ws.tag_tx, &ws.stats);
  tag::tag_transmission& tag_tx = ws.tag_tx;
  result.payload_symbols = tag_tx.n_payload_symbols;
  result.tag_energy_pj = tag_tx.energy_pj;
  obs::observe(c, obs::probe::tag_energy_pj, result.tag_energy_pj);
  if (tag_tx.n_payload_symbols < device.payload_symbols(config.payload_bits)) {
    report_workspace_gauges(c, ws.stats);
    return result;  // excitation too short for the payload
  }
  faults.apply_to_reflection(tag_tx.reflection, tag_tx.preamble_start,
                             tag_tx.data_end);
  modulate_span.stop();

  // --- The reader: one-packet stream session over the capture ---
  // "sim.session" times the session's set-up here, the result bookkeeping
  // after it has run and, being declared before it, its teardown: the trial
  // body outside the synthesis, chain and decoder stages.
  obs::timing_span session_span(c, "sim.session");
  // The reader adapts over its nominal silent window: the tag stays silent
  // until (at least) wake_end + silent, so [wake_end, wake_end + silent) is
  // guaranteed backscatter-free. This is the first 16 us of the PPDU.
  // Front-end (downconverter) faults are injected inside the chain, between
  // the analog canceller and the ADC — their physical location.
  const std::size_t silent_begin = ex.wake_end;
  const std::size_t silent_end =
      silent_begin + config.tag.silent_us * samples_per_us;
  fd::receive_chain_config chain_cfg = config.chain;
  chain_cfg.collector = c;
  if (faults.any_front_end()) {
    chain_cfg.front_end_hook = [&faults](std::span<cplx> samples) {
      faults.apply_front_end(samples);
    };
  }
  // The batch trial is a thin wrapper over a one-packet streaming session
  // (threads = 1, stream metrics off): bit-identical to direct chain+decode
  // calls by the streaming contract, with the trial workspace arenas passed
  // through as the session scratch so the hot path stays allocation-free.
  reader::stream_config stream_cfg;
  stream_cfg.tag = config.tag;
  stream_cfg.decoder = config.decoder;
  stream_cfg.chain = std::move(chain_cfg);
  stream_cfg.threads = 1;
  stream_cfg.queue_capacity = 1;
  stream_cfg.collector = c;
  stream_cfg.emit_stream_metrics = false;
  stream_cfg.chain_scratch = &ws.chain;
  stream_cfg.decode_scratch = &ws.decoder;
  // The post-cancel hook rewrites the whole cleaned segment, so the session
  // disables its ROI shrinking whenever one is installed — only wire it up
  // when a post-cancellation injector is actually active, keeping the
  // fault-free path (every PER/throughput sweep) on the shrunk chain.
  if (faults.any_post_cancellation()) {
    stream_cfg.post_cancel_hook = [&faults](std::span<const cplx> tx,
                                            std::span<cplx> cleaned,
                                            std::size_t window_end) {
      faults.apply_post_cancellation(tx, cleaned, window_end);
    };
  }
  const reader::stream_packet packet{.begin = 0,
                                     .end = n,
                                     .wake_end = ex.wake_end,
                                     .silent_end = silent_end,
                                     .payload_bits = config.payload_bits};
  dsp::acquire(ws.rx, n, &ws.stats);
  cvec& rx = ws.rx;
  reader::stream_session session(ex.samples, rx, std::span(&packet, 1),
                                 stream_cfg);

  // --- Received signal at the reader ---
  // y = x * h_env + ((x * h_f) .* reflection) * h_b + noise, synthesized
  // only over the samples the session reads: silent window ∪ the decoder's
  // read window on the fault-free path, the whole capture when the chain
  // runs full-range or an antenna-domain fault writes rx. Each ranged
  // convolution reads only its window plus len(h) - 1 samples of history.
  // Samples outside the ranges keep stale contents nobody reads. Every
  // synthesized sample is bit-identical to a full synthesis.
  fd::chain_ranges reads;
  if (faults.any_at_antenna()) {
    reads.ranges[0] = {0, n};
    reads.count = 1;
  } else {
    reads = session.read_ranges(0);
  }

  // --- The excitation samples the trial reads ---
  // x is read inside each rx read range plus the longest causal history
  // that reaches back from it: h_env for the leakage, h_f then h_b for the
  // incident signal feeding the reflection, and the analog and digital
  // cancellers' taps (the decoder's estimator history lies inside its read
  // window). The oracle reads the tag's data window plus len(h_f * h_b) - 1
  // samples of history, and a post-cancellation fault reads all of x. Only
  // the DATA symbols overlapping these ranges are modulated; a full rx read
  // gives a full x. (The wake window, read above, lies in the prepared
  // prefix.)
  const auto reach = [](std::size_t taps) { return taps > 0 ? taps - 1 : 0; };
  const std::size_t fb_history =
      reach(channels.h_f.size()) + reach(channels.h_b.size());
  const std::size_t x_history = std::max(
      {reach(channels.h_env.size()), fb_history,
       reach(stream_cfg.chain.analog.n_taps),
       reach(stream_cfg.chain.digital.n_taps)});
  const auto widened = [](std::size_t begin, std::size_t end,
                          std::size_t history) {
    return dsp::sample_range{begin > history ? begin - history : 0, end};
  };
  std::array<dsp::sample_range, 4> x_reads{};
  std::size_t x_count = 0;
  for (const dsp::sample_range& r : reads.span())
    x_reads[x_count++] = widened(r.begin, r.end, x_history);
  x_reads[x_count++] = widened(tag_tx.data_start, tag_tx.data_end, fb_history);
  if (faults.any_post_cancellation()) x_reads[x_count++] = {0, n};
  session_span.pause();
  excitation_span.resume();
  const std::size_t symbols_modulated = reader::modulate_excitation_into(
      ex_cfg, std::span(x_reads.data(), x_count), ws.ex);
  excitation_span.stop();
  if (c != nullptr)
    c->set_gauge("runtime.reader.excitation_symbols_modulated",
                 static_cast<double>(symbols_modulated));
  // The received signal above, one tile of each read range at a time, with
  // the noise key drawn where a whole-range add_awgn would draw it (nothing
  // uses the generator in between). A convolution output depends only on
  // its own index, so tiles are bit-identical to a whole-range synthesis:
  // the reflected tile starts h_b's history before the tile (clipped at
  // sample 0, where the whole-range convolution clips too). The two spans
  // stay separate stages, resumed per tile.
  obs::timing_span backscatter_span(c, "channel.backscatter");
  backscatter_span.pause();
  obs::timing_span noise_span(c, "sim.noise");
  const channel::awgn_stream noise =
      channel::draw_awgn_stream(channels.noise_power, n, gen);
  noise_span.pause();
  dsp::acquire(ws.reflected, tile_span, &ws.stats);
  dsp::acquire(ws.backscatter, synthesis_tile_samples, &ws.stats);
  for (const dsp::sample_range& r : reads.span())
    for (std::size_t t0 = r.begin; t0 < r.end; t0 += synthesis_tile_samples) {
      const std::size_t len = std::min(r.end - t0, synthesis_tile_samples);
      const std::size_t lo =
          t0 > reflected_history ? t0 - reflected_history : 0;
      const std::size_t n_reflected = t0 + len - lo;
      backscatter_span.resume();
      const std::span<cplx> incident_tile =
          std::span(ws.incident).first(n_reflected);
      const std::span<cplx> reflected_tile =
          std::span(ws.reflected).first(n_reflected);
      const std::span<cplx> backscatter_tile =
          std::span(ws.backscatter).first(len);
      const std::span<cplx> rx_tile = std::span(rx).subspan(t0, len);
      dsp::convolve_same_window(ex.samples, channels.h_f, lo, incident_tile);
      for (std::size_t i = 0; i < n_reflected; ++i)
        reflected_tile[i] = incident_tile[i] * tag_tx.reflection[lo + i];
      dsp::convolve_same_window(reflected_tile, channels.h_b, t0 - lo,
                                backscatter_tile);
      dsp::convolve_same_window(ex.samples, channels.h_env, t0, rx_tile);
      dsp::add_in_place(rx_tile, backscatter_tile);
      backscatter_span.pause();
      noise_span.resume();
      channel::add_awgn(rx_tile, noise, t0);
      noise_span.pause();
    }
  backscatter_span.stop();
  noise_span.resume();
  faults.apply_at_antenna(rx);
  noise_span.stop();
  if (c != nullptr) {
    std::size_t synthesized = 0;
    for (const dsp::sample_range& r : reads.span()) synthesized += r.size();
    c->set_gauge("runtime.sim.rx_samples_synthesized",
                 static_cast<double>(synthesized));
  }

  // --- Self-interference cancellation + BackFi decoding ---
  session.finish();
  session_span.resume();
  const reader::stream_packet_result& packet_result = session.results().front();
  const fd::receive_chain_result& chain = packet_result.chain;
  result.cancellation_bypassed = chain.cancellation_bypassed;
  result.link.analog_depth_db = chain.analog_depth_db;
  result.link.total_depth_db = chain.total_depth_db;
  result.link.residual_si_over_noise_db =
      dsp::to_db(std::max(chain.residual_power, 1e-30) /
                 std::max(channels.noise_power, 1e-30));
  obs::observe(c, obs::probe::residual_si_over_noise_db,
               result.link.residual_si_over_noise_db);

  // --- BackFi decoding (ran inside the stream session) ---
  const reader::decode_result& decoded = packet_result.decoded;
  result.sync_found = decoded.sync_found;
  result.decoded = decoded.decoded;
  result.crc_ok = decoded.crc_ok;
  result.failure = decoded.failure;
  result.link.post_mrc_snr_db = decoded.post_mrc_snr_db;
  result.link.sync_correlation = decoded.sync_correlation;
  result.link.evm_rms = decoded.evm_rms;
  if (result.sync_found) obs::count(c, obs::probe::trials_sync_found);
  if (result.decoded) obs::count(c, obs::probe::trials_decoded);
  if (result.crc_ok) obs::count(c, obs::probe::trials_crc_ok);
  if (decoded.decoded) {
    result.bit_errors = phy::hamming_distance(decoded.payload, payload);
    obs::count(c, obs::probe::bit_errors, result.bit_errors);
  }
  session_span.pause();

  // Raw (pre-Viterbi) symbol errors for the Fig. 11b BER analysis, counted
  // from the decoder's own hard decisions on the stored symbol estimates.
  obs::timing_span slicer_span(c, "reader.slicer");
  if (decoded.sync_found && !decoded.symbol_labels.empty()) {
    const std::size_t bps = tag::bits_per_symbol(config.tag.rate.modulation);
    std::size_t errors = 0;
    // The transmitted coded stream, as the tag built it.
    const phy::bitvec& coded = tag_tx.coded_bits;
    for (std::size_t s = 0;
         s < decoded.symbol_labels.size() && (s + 1) * bps <= coded.size();
         ++s) {
      std::uint32_t tx_label = 0;
      for (std::size_t b = 0; b < bps; ++b)
        tx_label = (tx_label << 1) | (coded[s * bps + b] & 1u);
      if (decoded.symbol_labels[s] != tx_label) ++errors;
    }
    result.raw_symbol_errors = errors;
    obs::count(c, obs::probe::raw_symbol_errors, errors);
  }

  slicer_span.stop();

  // --- Oracle SNR (the paper's VNA-measured expectation) ---
  obs::timing_span oracle_span(c, "sim.oracle");
  const std::size_t guard = std::min<std::size_t>(
      config.decoder.fb_taps - 1,
      device.samples_per_symbol() > 2 ? device.samples_per_symbol() - 2 : 1);
  result.link.expected_snr_db = oracle_post_mrc_snr_db_ws(
      ex.samples, channels,
      dsp::db_to_amplitude(-config.tag.insertion_loss_db),
      device.samples_per_symbol(), guard, tag_tx.data_start, tag_tx.data_end,
      ws.oracle_yhat, &ws.stats);
  oracle_span.stop();
  session_span.resume();
  obs::observe(c, obs::probe::expected_snr_db, result.link.expected_snr_db);

  // --- Throughput accounting ---
  if (result.crc_ok) {
    const double airtime_s =
        static_cast<double>(tag_tx.data_end - tag_tx.silent_start) *
        sample_period_s;
    result.effective_throughput_bps =
        static_cast<double>(config.payload_bits) / airtime_s;
    obs::observe(c, obs::probe::effective_throughput_bps,
                 result.effective_throughput_bps);
  }

  report_workspace_gauges(c, ws.stats);
  return result;
}

double packet_error_rate(const scenario_config& config, int trials) {
  validate_or_throw(config, "packet_error_rate");
  if (trials <= 0) return 0.0;
  // Each trial's seed depends only on (base seed, trial index) and each
  // trial fills its own slot; the index-ordered reduction (and the
  // index-ordered collector join) keeps the result — telemetry included —
  // bit-identical to the serial loop at any thread count. Execution goes
  // through the work-stealing sweep scheduler; its deterministic counters
  // (sim.scheduler.*) are reported on the parent after the join.
  const std::size_t n = static_cast<std::size_t>(trials);
  obs::collector_fork fork(config.collector, n);
  std::vector<std::uint8_t> failed(n, 0);
  const sweep_stats stats =
      sweep_for_ranges(n, [&](std::size_t begin, std::size_t end) {
        // trial_batch: one scenario copy per claimed chunk; only the
        // per-trial seed and collector change between trials.
        scenario_config& c = local_trial_batch().scratch;
        c = config;
        for (std::size_t t = begin; t < end; ++t) {
          c.seed = derive_trial_seed(config.seed, t);
          c.collector = fork.child(t);
          const trial_result r = run_backscatter_trial(c);
          failed[t] = (!r.crc_ok || r.bit_errors != 0) ? 1 : 0;
        }
      });
  fork.join();
  report_sweep_stats(config.collector, stats);
  int failures = 0;
  for (const std::uint8_t f : failed) failures += f;
  return static_cast<double>(failures) / static_cast<double>(trials);
}

double wilson_halfwidth(int failures, int trials, double z) {
  if (trials <= 0) return 1.0;
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(failures) / n;
  const double z2 = z * z;
  return (z / (1.0 + z2 / n)) *
         std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
}

std::vector<per_estimate> packet_error_rates_adaptive(
    std::span<const scenario_config> configs, const per_options& options,
    obs::collector* collector) {
  for (const scenario_config& config : configs)
    validate_or_throw(config, "packet_error_rates_adaptive");
  std::vector<per_estimate> out(configs.size());
  if (configs.empty() || options.max_trials <= 0) return out;
  const int max_trials = options.max_trials;
  const int min_trials = std::clamp(options.min_trials, 1, max_trials);
  const int batch = std::max(options.batch, 1);
  const bool adaptive = options.target_ci_halfwidth > 0.0;

  // Round loop: every live point contributes its next `batch` trial
  // indices to one flattened sweep, then the stopping rule replays the
  // committed outcome prefix of each point in index order. The round
  // composition is a pure function of (configs, options) and the
  // deterministic trial outcomes, so every quantity below — including the
  // telemetry merge order — is independent of the thread count.
  struct round_task {
    std::size_t point;
    int trial;
  };
  std::vector<std::uint8_t> live(configs.size(), 1);
  std::vector<round_task> round;
  std::vector<std::uint8_t> failed;
  for (;;) {
    round.clear();
    for (std::size_t p = 0; p < configs.size(); ++p) {
      if (!live[p]) continue;
      const int end = std::min(out[p].trials_run + batch, max_trials);
      for (int t = out[p].trials_run; t < end; ++t) round.push_back({p, t});
    }
    if (round.empty()) break;
    obs::collector_fork fork(collector, round.size());
    failed.assign(round.size(), 0);
    const sweep_stats stats = sweep_for_ranges(
        round.size(), [&](std::size_t begin, std::size_t end) {
          // Rounds are laid out point-major, so a chunk is almost always
          // same-point trials: the batch re-copies the scenario only at
          // point boundaries and mutates seed/collector in between.
          trial_batch& batch = local_trial_batch();
          batch.point = static_cast<std::size_t>(-1);
          for (std::size_t k = begin; k < end; ++k) {
            const round_task task = round[k];
            if (task.point != batch.point) {
              batch.scratch = configs[task.point];
              batch.point = task.point;
            }
            scenario_config& c = batch.scratch;
            c.seed = derive_trial_seed(configs[task.point].seed,
                                       static_cast<std::uint64_t>(task.trial));
            c.collector = fork.child(k);
            const trial_result r = run_backscatter_trial(c);
            failed[k] = (!r.crc_ok || r.bit_errors != 0) ? 1 : 0;
          }
        });
    fork.join();
    report_sweep_stats(collector, stats);
    // Commit the round in (point, trial) order, then apply the stopping
    // rule at the new batch boundary of every live point.
    for (std::size_t k = 0; k < round.size(); ++k) {
      per_estimate& e = out[round[k].point];
      e.failures += failed[k];
      ++e.trials_run;
    }
    for (std::size_t p = 0; p < configs.size(); ++p) {
      if (!live[p]) continue;
      per_estimate& e = out[p];
      e.ci_halfwidth = wilson_halfwidth(e.failures, e.trials_run, options.z);
      if (adaptive && e.trials_run >= min_trials && e.trials_run < max_trials &&
          e.ci_halfwidth <= options.target_ci_halfwidth) {
        e.early_stopped = true;
        live[p] = 0;
      } else if (e.trials_run >= max_trials) {
        live[p] = 0;
      }
    }
  }
  std::uint64_t trials_run = 0, trials_saved = 0, early_stops = 0;
  for (per_estimate& e : out) {
    e.per = e.trials_run > 0 ? static_cast<double>(e.failures) /
                                   static_cast<double>(e.trials_run)
                             : 0.0;
    trials_run += static_cast<std::uint64_t>(e.trials_run);
    trials_saved += static_cast<std::uint64_t>(max_trials - e.trials_run);
    early_stops += e.early_stopped ? 1 : 0;
  }
  if (collector) {
    // Deterministic adaptive telemetry: depends only on the config and the
    // deterministic outcome sequences, never on the thread count.
    collector->add_counter("sim.adaptive.points", configs.size());
    collector->add_counter("sim.adaptive.trials_run", trials_run);
    collector->add_counter("sim.adaptive.trials_saved", trials_saved);
    collector->add_counter("sim.adaptive.early_stops", early_stops);
  }
  return out;
}

per_estimate packet_error_rate(const scenario_config& config,
                               const per_options& options) {
  return packet_error_rates_adaptive(std::span(&config, 1), options,
                                     config.collector)[0];
}

}  // namespace backfi::sim
