// perf_trial: end-to-end trial-pipeline throughput benchmark.
//
// Measures run_backscatter_trial on the fig08 mid-range scenario (the
// 4000-byte PPDU / 600 payload-bit point) in the cold regime every PER
// point runs: each rep draws fresh trial seeds (derive_trial_seed(rep, i)),
// so no rep replays another rep's trials. Three configurations:
//
//   serial      one trial after another on the calling thread
//   threads=4   a fresh-seed trial batch through the Monte-Carlo pool
//   determinism the serial and threads=4 PER must be bit-identical
//
// A streaming section then times a 32-packet drifting capture through
// reader::stream_session at 1 and 2 threads twice over: with the capture
// synthesis inside the clock (stream.packets_per_sec_*) and reader-only,
// the capture built untimed (stream.reader_packets_per_sec_*).
//
// Both timed legs run without a collector, so scaling_efficiency_4t
// compares like with like. One further untimed-for-throughput serial rep
// runs with a collector and supplies the per-stage timing means plus the
// workspace reuse gauges (runtime.workspace.*). Results go to
// BENCH_trial.json (override with --out=FILE); scripts/bench_compare.py
// diffs that file against the committed baseline in CI and fails on a >25%
// regression of serial trials/sec.
//
// A long-packet section then runs the point fig08's 7 m cells settle on
// (QPSK 1/2 at 100 kHz, 7 m: 200 samples per symbol, ~128 K payload
// samples), instrumented, and records its stage means under "long_packet".
//
// Exit code: non-zero when the parallel PER diverges from serial, when a
// fault-free trial synthesizes received samples outside the silent window
// ∪ decoder read window its receive chain processes, when it modulates half
// or more of the excitation's OFDM DATA symbols, when a long-packet sync
// attempt convolves or precomputes more than its sync window + 2·search +
// fb_taps samples (the timing scan sliding back over the payload), or when
// the output file cannot be written, so CI catches determinism and
// ranged-synthesis bugs here too.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "dsp/linalg.h"
#include "obs/collector.h"
#include "obs/export.h"
#include "sim/backscatter_sim.h"
#include "sim/parallel.h"
#include "sim/scheduler.h"
#include "sim/stream_sim.h"
#include "tag/tag_device.h"
#include "sim/rate_adaptation.h"
#include "wifi/rates.h"

namespace {

using namespace backfi;

constexpr int kTrialsPerRep = 60;
constexpr int kReps = 5;
constexpr int kLongPacketTrials = 32;

sim::scenario_config fig08_mid() {
  sim::scenario_config cfg;
  cfg.excitation.ppdu_bytes = 4000;
  cfg.payload_bits = 600;
  cfg.tag.preamble_us = 32;
  cfg.tag_distance_m = 2.0;
  cfg.tag.rate = {tag::tag_modulation::psk16, phy::code_rate::half, 2.5e6};
  return cfg;
}

/// The long-packet point: fig08_mid's link moved to QPSK 1/2 at 100 kHz and
/// 7 m, sized by the rate-adaptation rules the sweeps use.
sim::scenario_config long_packet() {
  return sim::scenario_for_point(
      fig08_mid(), {tag::tag_modulation::qpsk, phy::code_rate::half, 100e3},
      7.0);
}

/// One serial rep over the fresh seeds derive_trial_seed(rep, i); every
/// caller passes a rep index no other rep uses.
double wall_seconds_serial(std::uint64_t rep, obs::collector* collector) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kTrialsPerRep; ++i) {
    sim::scenario_config cfg = fig08_mid();
    cfg.seed = sim::derive_trial_seed(rep, i);
    cfg.collector = collector;
    sim::run_backscatter_trial(cfg);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void append_kv(std::string& out, const char* key, double v, bool last = false) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "    \"%s\": %.17g%s\n", key, v,
                last ? "" : ",");
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_trial.json";
  std::size_t pool_threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strncmp(argv[i], "--threads=", 10) == 0)
      pool_threads = static_cast<std::size_t>(
          std::max(1L, std::strtol(argv[i] + 10, nullptr, 10)));
  }

  bench::print_header("perf_trial", "end-to-end trial pipeline throughput");
  std::printf("scenario: fig08_mid (ppdu=4000B payload=600b dist=2.0m psk16)\n");
  std::printf("%d trials/rep, %d reps, fresh seeds per rep, median wall "
              "time\n",
              kTrialsPerRep, kReps);

  // Rep indices: 0 warm-up, 1..kReps serial, kReps + 1 instrumented serial,
  // then one per pool rep. Every rep's seeds are fresh.
  std::uint64_t next_rep = 0;

  // Warm-up: populate the thread-local workspace and the process-wide
  // shape tables (FFT plans, excitation prefix, scrambler keystreams) so
  // the measured reps see the steady state a Monte-Carlo sweep runs in.
  wall_seconds_serial(next_rep++, nullptr);

  // Serial throughput, no collector (the same setting as the pool leg).
  std::vector<double> serial_walls;
  for (int r = 0; r < kReps; ++r)
    serial_walls.push_back(wall_seconds_serial(next_rep++, nullptr));
  const double serial_wall = bench::median(serial_walls);
  const double serial_tps = kTrialsPerRep / serial_wall;
  std::printf("serial:    %8.1f trials/sec  (%7.1f us/trial)\n", serial_tps,
              serial_wall / kTrialsPerRep * 1e6);

  // Instrumented serial rep: the collector supplies the per-stage means
  // and — because the workspace gauges are set at the end of every trial —
  // the post-warm-up reuse percentages.
  obs::collector serial_collector;
  wall_seconds_serial(next_rep++, &serial_collector);

  // Batch API through the sweep scheduler at 4 threads, each rep on a
  // fresh base seed (packet_error_rate runs derive_trial_seed(base, t)),
  // plus the serial reference for the determinism check: packet_error_rate
  // aggregates the same per-seed trials, so the last rep's PER must match
  // its 1-thread rerun bit-for-bit. A further rep runs as an instrumented
  // sweep_for to capture the execution report (per-lane busy seconds,
  // steal count) the scaling diagnosis needs.
  double per_serial = 0.0;
  double per_threads = 0.0;
  double pool_wall = 0.0;
  sim::sweep_stats pool_stats;
  {
    sim::scenario_config cfg = fig08_mid();
    sim::scoped_thread_count guard(pool_threads);
    std::vector<double> walls;
    for (int r = 0; r < kReps; ++r) {
      cfg.seed = next_rep++;
      const auto t0 = std::chrono::steady_clock::now();
      per_threads = sim::packet_error_rate(cfg, kTrialsPerRep);
      walls.push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
    }
    pool_wall = bench::median(walls);
    {
      sim::scoped_thread_count serial_guard(1);
      per_serial = sim::packet_error_rate(cfg, kTrialsPerRep);
    }
    // Instrumented rep: a fresh-seed trial batch shaped like
    // packet_error_rate's, through the same scheduler, but with the stats
    // returned to us.
    cfg.seed = next_rep++;
    pool_stats = sim::sweep_for(kTrialsPerRep, [&](std::size_t t) {
      sim::scenario_config c = cfg;
      c.seed = sim::derive_trial_seed(cfg.seed, t);
      sim::run_backscatter_trial(c);
    });
  }
  const double pool_tps = kTrialsPerRep / pool_wall;
  const bool identical = per_serial == per_threads;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // Speedup is bounded by the cores actually present, not by the lane
  // count: normalize so 4 lanes on a 1-core box score ~1.0 (perfect use of
  // the single core), not 0.25. Oversubscribed runs (--threads above the
  // core count) are normalized the same way, so the gate checks "no pool
  // collapse" rather than impossible speedups.
  const double scaling_efficiency_4t =
      (pool_tps / serial_tps) /
      std::min<double>(static_cast<double>(pool_threads), hw);
  std::printf("threads=%zu: %7.1f trials/sec on %u hardware thread%s  "
              "(scaling efficiency %.2f)\n",
              pool_threads, pool_tps, hw, hw == 1 ? "" : "s",
              scaling_efficiency_4t);
  std::printf("lanes:     busy");
  for (const double b : pool_stats.busy_seconds) std::printf(" %.3fs", b);
  std::printf("  steals=%zu  wall=%.3fs  busy/wall*lanes=%.2f\n",
              pool_stats.steals, pool_stats.wall_seconds,
              pool_stats.efficiency());
  std::printf("PER serial %.17g  threads=4 %.17g  bit-identical: %s\n",
              per_serial, per_threads,
              identical ? "yes" : "NO — DETERMINISM BUG");

  const auto& reg = serial_collector.registry();
  auto gauge = [&](const char* name) {
    const auto it = reg.gauges().find(name);
    return it != reg.gauges().end() && it->second.set ? it->second.value : 0.0;
  };
  const double reused = gauge("runtime.workspace.bytes_reused");
  const double allocated = gauge("runtime.workspace.bytes_allocated");
  const double reuse_pct = gauge("runtime.workspace.reuse_pct");
  std::printf("workspace: reused=%.0f B  allocated=%.0f B  reuse=%.2f%%\n",
              reused, allocated, reuse_pct);

  // ROI accounting (gauges are per-chain-run, so these describe the last
  // trial — every trial in the rep shares the fig08_mid geometry): how much
  // of the capture the quantize/cancel sweeps actually visit now that the
  // chain runs region-of-interest shrunk.
  const double roi_processed = gauge("runtime.chain.roi.samples_processed");
  const double roi_skipped = gauge("runtime.chain.roi.samples_skipped");
  const double roi_coverage = gauge("runtime.chain.roi.coverage");
  std::printf("roi:       processed=%.0f  skipped=%.0f  coverage=%.1f%% of "
              "capture\n",
              roi_processed, roi_skipped, roi_coverage * 100.0);
  // The trial synthesizes the received signal only where the chain reads
  // it, so on this fault-free scenario the synthesized count must equal
  // the chain's processed count: a larger one means samples nobody reads
  // are being synthesized again.
  const double rx_synthesized = gauge("runtime.sim.rx_samples_synthesized");
  const bool synthesis_in_roi =
      roi_processed > 0.0 && rx_synthesized == roi_processed;
  std::printf("synthesis: rx samples synthesized=%.0f  within silent+roi: "
              "%s\n",
              rx_synthesized,
              synthesis_in_roi ? "yes" : "NO — RANGED SYNTHESIS REGRESSED");

  // Likewise the excitation: the trial modulates only the OFDM DATA
  // symbols it reads (about 15% of them here). Half or more means the
  // ranged excitation silently fell back to a full build.
  const sim::scenario_config mid = fig08_mid();
  const double data_symbols = static_cast<double>(
      wifi::data_symbol_count(mid.excitation.ppdu_bytes, mid.excitation.rate) *
      std::max<std::size_t>(mid.excitation.n_ppdus, 1));
  const double symbols_modulated =
      gauge("runtime.reader.excitation_symbols_modulated");
  const bool excitation_ranged =
      symbols_modulated > 0.0 && 2.0 * symbols_modulated < data_symbols;
  std::printf("excitation: DATA symbols modulated=%.0f of %.0f  ranged: %s\n",
              symbols_modulated, data_symbols,
              excitation_ranged ? "yes" : "NO — RANGED EXCITATION REGRESSED");

  // FIR least-squares size dispatch (process-wide, cumulative): the
  // scenario's 5-8-tap fits over long windows should all land on the
  // bit-exact vectorized build (correlation form is reserved for >=12-tap
  // filters). A drift toward scalar here means the dispatch thresholds (or
  // a caller's window geometry) regressed even if the stage means still
  // pass.
  const dsp::fir_ls_counts ls_counts = dsp::fir_ls_dispatch_counts();
  std::printf("fir_ls:    %llu correlation / %llu vectorized / %llu scalar "
              "fits\n",
              static_cast<unsigned long long>(ls_counts.correlation),
              static_cast<unsigned long long>(ls_counts.vectorized),
              static_cast<unsigned long long>(ls_counts.scalar));

  // Stage coverage: the top-level stage spans partition sim.trial, so
  // their means must account for (nearly) all of the trial mean. A low
  // ratio means a pipeline stage lost its span — the probe-gap regression
  // this PR closed.
  auto stage_mean = [&](const char* name) {
    const auto it = reg.histograms().find(std::string("timing.") + name);
    return it != reg.histograms().end() && it->second.count > 0
               ? it->second.mean()
               : 0.0;
  };
  const char* top_level_stages[] = {
      "reader.excitation", "channel.forward",   "tag.modulate",
      "sim.session",       "channel.backscatter", "sim.noise",
      "fd.receive_chain",  "reader.decode",     "reader.slicer",
      "sim.oracle",
  };
  double stage_sum = 0.0;
  for (const char* s : top_level_stages) stage_sum += stage_mean(s);
  const double trial_mean = stage_mean("sim.trial");
  const double stage_coverage =
      trial_mean > 0.0 ? stage_sum / trial_mean : 0.0;
  std::printf("stages:    sum %.1f us of trial %.1f us  (coverage %.1f%%)\n",
              stage_sum * 1e6, trial_mean * 1e6, stage_coverage * 100.0);

  // Long packets: serial, instrumented, fresh seeds. The decoder reports
  // each sync attempt's convolved/precomputed samples beyond its 2·search
  // timing margin; past the sync word (plus the estimator's fb_taps of
  // slack) means an attempt reached into the payload again.
  obs::collector long_collector;
  const sim::scenario_config long_cfg = long_packet();
  const std::uint64_t long_rep = next_rep++;
  double long_wall = 0.0;
  {
    sim::scenario_config cfg = long_cfg;
    for (int i = 0; i < 4; ++i) {  // warm-up: long-packet buffer sizes
      cfg.seed =
          sim::derive_trial_seed(long_rep, static_cast<std::uint64_t>(i));
      sim::run_backscatter_trial(cfg);
    }
    cfg.collector = &long_collector;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kLongPacketTrials; ++i) {
      cfg.seed = sim::derive_trial_seed(
          long_rep, static_cast<std::uint64_t>(4 + i));
      sim::run_backscatter_trial(cfg);
    }
    long_wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  }
  const auto& long_reg = long_collector.registry();
  const auto window_it = long_reg.histograms().find(
      "runtime.reader.sync_scan.samples_beyond_search");
  const double sync_attempts =
      window_it != long_reg.histograms().end()
          ? static_cast<double>(window_it->second.count)
          : 0.0;
  const double sync_window_max =
      sync_attempts > 0.0 ? window_it->second.max_value : 0.0;
  const double sync_window_bound = static_cast<double>(
      long_cfg.tag.sync_symbols *
          tag::tag_device(long_cfg.tag).samples_per_symbol() +
      long_cfg.decoder.fb_taps);
  const bool sync_window_ok =
      sync_attempts > 0.0 && sync_window_max <= sync_window_bound;
  std::printf("long packet: qpsk 1/2 @ 100 kHz, 7 m: %.0f us/trial "
              "(instrumented, %d trials)\n",
              long_wall / kLongPacketTrials * 1e6, kLongPacketTrials);
  std::printf("sync scan: %.0f attempts, max %.0f samples beyond 2*search "
              "(bound %.0f)  windowed: %s\n",
              sync_attempts, sync_window_max, sync_window_bound,
              sync_window_ok ? "yes" : "NO — SYNC SCAN REACHES THE PAYLOAD");

  // Streaming pipeline: one continuous 32-packet capture with inter-packet
  // channel/LO drift through reader::stream_session, at 1 and 2 threads,
  // on a fresh capture seed per rep. Uses its own collector so the
  // reader.stream.* stage spans stay out of the batch-trial stage-coverage
  // math above; an untimed 2-thread rerun of the last 1-thread capture
  // must decode the identical bit-stream (streaming determinism contract).
  obs::collector stream_collector;
  sim::stream_scenario_config stream_cfg;
  stream_cfg.scenario = fig08_mid();
  stream_cfg.scenario.collector = &stream_collector;
  stream_cfg.n_packets = 32;
  stream_cfg.forward_drift.coherence_packets = 16.0;
  stream_cfg.lo_drift.step_std_rad = 0.02;
  stream_cfg.feed_chunk_samples = 1u << 14;

  std::uint64_t next_stream_seed = 1;
  auto stream_rep = [&](std::size_t threads, std::vector<double>& walls,
                        int reps) {
    stream_cfg.threads = threads;
    sim::stream_trial_result last;
    for (int r = 0; r < reps; ++r) {
      stream_cfg.scenario.seed = next_stream_seed++;
      const auto t0 = std::chrono::steady_clock::now();
      last = sim::run_stream_trial(stream_cfg);
      walls.push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
    }
    return last;
  };
  std::vector<double> stream_walls_1t;
  std::vector<double> stream_walls_2t;
  stream_rep(1, stream_walls_1t, 1);  // warm-up (buffers, shape tables)
  stream_walls_1t.clear();
  const sim::stream_trial_result stream_1t =
      stream_rep(1, stream_walls_1t, kReps);
  const std::uint64_t last_1t_seed = stream_cfg.scenario.seed;
  stream_rep(2, stream_walls_2t, kReps);
  stream_cfg.threads = 2;
  stream_cfg.scenario.seed = last_1t_seed;
  const sim::stream_trial_result stream_2t = sim::run_stream_trial(stream_cfg);
  const double stream_wall_1t = bench::median(stream_walls_1t);
  const double stream_wall_2t = bench::median(stream_walls_2t);
  const double stream_pps_1t = stream_cfg.n_packets / stream_wall_1t;
  const double stream_pps_2t = stream_cfg.n_packets / stream_wall_2t;
  bool stream_identical =
      stream_1t.crc_ok == stream_2t.crc_ok &&
      stream_1t.packets.size() == stream_2t.packets.size();
  if (stream_identical) {
    for (std::size_t i = 0; i < stream_1t.packets.size(); ++i)
      if (stream_1t.packets[i].payload != stream_2t.packets[i].payload)
        stream_identical = false;
  }
  // Reader-only streaming: the same drifting capture, built by
  // sim::build_stream_capture outside the clock, so the timed part is the
  // stream_session alone (receive chain + decoder, no synthesis) — the
  // reader's own packet rate. No collector, like the timed batch legs.
  auto reader_rep = [&](std::size_t threads, std::vector<double>& walls,
                        int reps) {
    sim::stream_scenario_config cfg = stream_cfg;
    cfg.scenario.collector = nullptr;
    cfg.threads = threads;
    reader::stream_config scfg;
    scfg.tag = cfg.scenario.tag;
    scfg.decoder = cfg.scenario.decoder;
    scfg.chain = cfg.scenario.chain;
    scfg.threads = threads;
    scfg.queue_capacity = cfg.queue_capacity;
    scfg.overflow = cfg.overflow;
    for (int r = 0; r < reps; ++r) {
      cfg.scenario.seed = next_stream_seed++;
      const sim::stream_capture cap = sim::build_stream_capture(cfg);
      const auto t0 = std::chrono::steady_clock::now();
      reader::stream_session session(cap.x, cap.y, cap.schedule, scfg);
      for (std::size_t fed = 0; fed < cap.y.size();
           fed += cfg.feed_chunk_samples)
        session.feed(std::min(cfg.feed_chunk_samples, cap.y.size() - fed));
      session.finish();
      walls.push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
    }
  };
  std::vector<double> reader_walls_1t;
  std::vector<double> reader_walls_2t;
  reader_rep(1, reader_walls_1t, kReps);
  reader_rep(2, reader_walls_2t, kReps);
  const double reader_pps_1t =
      stream_cfg.n_packets / bench::median(reader_walls_1t);
  const double reader_pps_2t =
      stream_cfg.n_packets / bench::median(reader_walls_2t);

  const sim::stream_trial_result& sr = stream_2t;
  std::printf("stream:    %5.1f pkt/sec 1t  %5.1f pkt/sec 2t  (32-pkt "
              "drifting capture, crc %zu/32, bit-identical: %s)\n",
              stream_pps_1t, stream_pps_2t, sr.crc_ok,
              stream_identical ? "yes" : "NO — DETERMINISM BUG");
  std::printf("stream reader-only: %5.1f pkt/sec 1t  %5.1f pkt/sec 2t  "
              "(capture built untimed)\n",
              reader_pps_1t, reader_pps_2t);
  std::printf("stream 2t: cancel %.0f us/pkt  decode %.0f us/pkt  latency "
              "max %.0f us  queue high-water %zu\n",
              sr.stats.cancel_us_total / stream_cfg.n_packets,
              sr.stats.decode_us_total / stream_cfg.n_packets,
              sr.stats.latency_us_max, sr.stats.queue_high_water);
  const double stream_roi_total =
      static_cast<double>(sr.stats.roi_samples_processed +
                          sr.stats.roi_samples_skipped);
  std::printf("stream roi: processed=%zu skipped=%zu (%.1f%% of capture)\n",
              sr.stats.roi_samples_processed, sr.stats.roi_samples_skipped,
              stream_roi_total > 0.0
                  ? 100.0 * static_cast<double>(sr.stats.roi_samples_processed) /
                        stream_roi_total
                  : 100.0);

  std::string json;
  json += "{\n";
  json += "  \"backfi_bench_trial\": 1,\n";
  json += "  \"scenario\": \"fig08_mid\",\n";
  json += "  \"trials_per_rep\": " + std::to_string(kTrialsPerRep) + ",\n";
  json += "  \"reps\": " + std::to_string(kReps) + ",\n";
  json += "  \"hardware_threads\": " + std::to_string(hw) + ",\n";
  json += "  \"serial\": {\n";
  append_kv(json, "trials_per_sec", serial_tps);
  append_kv(json, "us_per_trial", serial_wall / kTrialsPerRep * 1e6, true);
  json += "  },\n";
  json += "  \"threads_4\": {\n";
  append_kv(json, "pool_threads", static_cast<double>(pool_threads));
  append_kv(json, "trials_per_sec", pool_tps);
  append_kv(json, "scaling_efficiency_4t", scaling_efficiency_4t);
  append_kv(json, "steals", static_cast<double>(pool_stats.steals));
  append_kv(json, "busy_seconds_total", pool_stats.busy_seconds_total());
  append_kv(json, "lane_efficiency", pool_stats.efficiency(), true);
  json += "  },\n";
  json += "  \"stage_coverage\": {\n";
  append_kv(json, "stage_sum_us", stage_sum * 1e6);
  append_kv(json, "trial_us", trial_mean * 1e6);
  append_kv(json, "coverage", stage_coverage, true);
  json += "  },\n";
  json += "  \"determinism\": {\n";
  append_kv(json, "per_serial", per_serial);
  append_kv(json, "per_threads_4", per_threads);
  json += std::string("    \"identical\": ") + (identical ? "true" : "false") +
          "\n  },\n";
  json += "  \"workspace\": {\n";
  append_kv(json, "bytes_reused", reused);
  append_kv(json, "bytes_allocated", allocated);
  append_kv(json, "reuse_pct", reuse_pct, true);
  json += "  },\n";
  json += "  \"roi\": {\n";
  append_kv(json, "samples_processed", roi_processed);
  append_kv(json, "samples_skipped", roi_skipped);
  append_kv(json, "coverage", roi_coverage);
  append_kv(json, "rx_samples_synthesized", rx_synthesized);
  append_kv(json, "excitation_symbols_modulated", symbols_modulated);
  append_kv(json, "stream_samples_processed",
            static_cast<double>(sr.stats.roi_samples_processed));
  append_kv(json, "stream_samples_skipped",
            static_cast<double>(sr.stats.roi_samples_skipped), true);
  json += "  },\n";
  json += "  \"fir_ls_dispatch\": {\n";
  append_kv(json, "correlation", static_cast<double>(ls_counts.correlation));
  append_kv(json, "vectorized", static_cast<double>(ls_counts.vectorized));
  append_kv(json, "scalar", static_cast<double>(ls_counts.scalar), true);
  json += "  },\n";
  json += "  \"stream\": {\n";
  append_kv(json, "packets", static_cast<double>(stream_cfg.n_packets));
  append_kv(json, "packets_per_sec_1t", stream_pps_1t);
  append_kv(json, "packets_per_sec_2t", stream_pps_2t);
  append_kv(json, "reader_packets_per_sec_1t", reader_pps_1t);
  append_kv(json, "reader_packets_per_sec_2t", reader_pps_2t);
  append_kv(json, "crc_ok", static_cast<double>(sr.crc_ok));
  append_kv(json, "cancel_us_per_packet",
            sr.stats.cancel_us_total / stream_cfg.n_packets);
  append_kv(json, "decode_us_per_packet",
            sr.stats.decode_us_total / stream_cfg.n_packets);
  append_kv(json, "latency_us_max", sr.stats.latency_us_max);
  append_kv(json, "queue_high_water",
            static_cast<double>(sr.stats.queue_high_water));
  json += std::string("    \"identical\": ") +
          (stream_identical ? "true" : "false") + "\n  },\n";
  // Timing histograms whose names start with `prefix`, as "stage": mean-us
  // entries (the "timing." prefix dropped), comma-separated across calls.
  bool first = true;
  auto append_means = [&](const obs::metrics_registry& r, const char* prefix,
                          const char* indent) {
    for (const auto& [name, h] : r.histograms()) {
      if (name.rfind(prefix, 0) != 0 || h.count == 0) continue;
      if (!first) json += ",\n";
      first = false;
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", indent,
                    name.c_str() + 7, h.mean() * 1e6);
      json += buf;
    }
  };
  json += "  \"stage_means_us\": {\n";
  append_means(reg, "timing.", "    ");
  // The streaming stage spans live on their own collector (see above);
  // record the reader.stream.* means alongside the batch stages.
  append_means(stream_collector.registry(), "timing.reader.stream.", "    ");
  json += "\n  },\n";
  json += "  \"long_packet\": {\n";
  json += "    \"scenario\": \"qpsk_half_100k_7m\",\n";
  append_kv(json, "trials", kLongPacketTrials);
  append_kv(json, "us_per_trial", long_wall / kLongPacketTrials * 1e6);
  append_kv(json, "sync_attempts", sync_attempts);
  append_kv(json, "sync_samples_beyond_search_max", sync_window_max);
  append_kv(json, "sync_samples_beyond_search_bound", sync_window_bound);
  json += "    \"stage_means_us\": {\n";
  first = true;
  append_means(long_reg, "timing.", "      ");
  json += "\n    }\n  }\n}\n";

  const bool wrote = obs::write_file(out_path, json);
  std::printf("%s %s\n", wrote ? "wrote" : "FAILED to write", out_path.c_str());
  return (identical && stream_identical && synthesis_in_roi &&
          excitation_ranged && sync_window_ok && wrote)
             ? 0
             : 1;
}
