#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>

#include "calibration.h"
#include "checks.h"
#include "impair/plan.h"
#include "reader/decoder.h"
#include "replay.h"
#include "sim/parallel.h"
#include "sim/rate_adaptation.h"
#include "sim/scheduler.h"
#include "sim/stream_sim.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

using namespace backfi;

namespace {

using steady = std::chrono::steady_clock;

double seconds_since(steady::time_point t0) {
  return std::chrono::duration<double>(steady::now() - t0).count();
}

// Set-up is repeated this many times per run and reported as the median.
constexpr int kSetupReps = 9;
// Warm-up trials per set-up (workspace buffers, FFT plans, prefix caches).
constexpr std::uint64_t kWarmupTrials = 8;
// Operations between two calibration-kernel samples inside a measured
// block (calibration.h).
constexpr std::uint64_t kTrialsPerSample = 2;
constexpr std::size_t kPacketsPerSample = 16;

// Seed namespaces: every purpose draws its trial seeds from its own base,
// so no seed repeats between set-up, measurement and the traced replay.
// Warm-up trials use fixed seeds (workload seed 0), so set-up does the
// same work at every workload seed.
enum class purpose : std::uint64_t { warmup = 1, traced, stream };

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t seed_space(std::uint64_t seed, purpose p, std::uint64_t index = 0) {
  return splitmix64(splitmix64(seed) ^
                    ((static_cast<std::uint64_t>(p) << 40) + index));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Median of kSetupReps calls of set_up(rep), in reference seconds
// (calibration.h) on `lanes` lanes.
double timed_setup(std::size_t lanes,
                   const std::function<void(int, calibrated_timer&)>& set_up) {
  std::vector<double> times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    calibrated_timer timer(lanes);
    set_up(rep, timer);
    times.push_back(timer.reference_seconds());
  }
  return median(times);
}

// Operations per second of the measured blocks: `scaled` at the reference
// speed (the reported metric), `raw` as the wall clock saw them.
struct block_rates {
  std::vector<double> scaled;
  std::vector<double> raw;

  void add(double ops, calibrated_timer& timer) {
    scaled.push_back(ops / timer.reference_seconds());
    raw.push_back(ops / timer.wall_seconds());
  }
};

void add_end_to_end(run_result& out, const block_rates& rates, double setup_s,
                    const char* name) {
  out.metrics = {{"ops_per_s", median(rates.scaled), "1/s"},
                 {"setup_s", setup_s, "s"},
                 {"peak_rss_mb", peak_rss_mb(), "MiB"}};
  const double spread = rates.scaled.size() >= 2
                            ? quartiles(rates.scaled).relative_spread()
                            : 0.0;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s = %.2f 1/s at reference speed, %.2f 1/s wall clock "
                "(medians of %zu blocks; block quartile spread %.3f)",
                name, median(rates.scaled), median(rates.raw),
                rates.scaled.size(), spread);
  out.notes.push_back(buf);
}

std::string format(const char* fmt, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, a, b, c);
  return buf;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Count one operation; a failed output check makes the run incorrect.
void count_op(run_result& out, bool ok) {
  ++out.attempted;
  if (!ok) {
    ++out.failed;
    out.correct = false;
  }
}

// Fail the run when fewer than `floor` of its `n` operations decoded with
// a passing CRC (checks.h, decode_shortfall).
void check_yield(run_result& out, std::uint64_t crc_ok, std::uint64_t n,
                 double floor) {
  const std::uint64_t missing = decode_shortfall(crc_ok, n, floor);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "crc_ok_frac = %.4f over %llu operations (floor %.2f)",
                ratio(static_cast<double>(crc_ok), static_cast<double>(n)),
                static_cast<unsigned long long>(n), floor);
  out.notes.push_back(buf);
  if (missing == 0) return;
  out.failed += missing;
  out.correct = false;
  out.notes.push_back(format(
      "decode yield below its floor: %.0f more CRC-ok decodes expected",
      static_cast<double>(missing)));
}

// --- Scenarios -------------------------------------------------------------

// Fig. 8 mid-range point: 4000-B excitation PPDU, 600-bit payload, 2 m,
// 16-PSK rate 1/2 at 2.5 MHz (what every fig08 PER trial looks like).
sim::scenario_config fig08_base(std::size_t preamble_us) {
  sim::scenario_config cfg;
  cfg.excitation.ppdu_bytes = 4000;
  cfg.payload_bits = 600;
  cfg.tag.preamble_us = preamble_us;
  return cfg;
}

sim::scenario_config fig08_mid() {
  sim::scenario_config cfg = fig08_base(32);
  cfg.tag_distance_m = 2.0;
  cfg.tag.rate = {tag::tag_modulation::psk16, phy::code_rate::half, 2.5e6};
  return cfg;
}

// The robustness campaign's link at its baseline operating point.
sim::scenario_config campaign_link() {
  sim::scenario_config link;
  link.excitation.ppdu_bytes = 1500;
  link.payload_bits = 256;
  return sim::scenario_for_point(
      link, {tag::tag_modulation::qpsk, phy::code_rate::half, 2e6}, 1.5);
}

// Per-trial inputs of the two trial workloads. Impaired trials cycle
// through the nine fault classes and, per round of nine, four severities,
// so a block of 36 trials always has the same fault mix.
constexpr double kSeverities[] = {0.25, 0.5, 0.75, 1.0};
constexpr std::uint64_t kImpairedBlock = 36;
constexpr std::uint64_t kColdBlock = 24;
// Decode-yield floors, well below what the program decodes: 0.92-0.95 of
// trial_cold's trials pass the CRC, 0.40-0.43 of trial_impaired's (seeds
// 1-4). A run of either has a few hundred trials at least, so the floors
// sit many binomial standard deviations below those shares.
constexpr double kColdYieldFloor = 0.8;
constexpr double kImpairedYieldFloor = 0.25;

struct trial_plan {
  sim::scenario_config base;
  bool impaired = false;

  void configure(sim::scenario_config& c, std::uint64_t space,
                 std::uint64_t i) const {
    c.seed = sim::derive_trial_seed(space, i);
    if (!impaired) return;
    const auto classes = impair::all_fault_classes();
    c.impairments = impair::plan_for(
        classes[i % classes.size()],
        kSeverities[(i / classes.size()) % std::size(kSeverities)], c.seed);
  }
};

// --- Traced-run accounting -------------------------------------------------

struct replay_tally {
  std::uint64_t chain_runs = 0;
  std::uint64_t hooked_runs = 0;
  std::uint64_t roi_processed = 0;
  std::uint64_t roi_total = 0;
  std::uint64_t hooked_processed = 0;
  std::uint64_t hooked_total = 0;
  std::uint64_t sync_attempts = 0;
  std::uint64_t crc_ok = 0;
  std::uint64_t mismatches = 0;
  counter_snapshot counters;
  double traced_s = 0.0;
  double untraced_s = 0.0;
  std::uint64_t traced_ops = 0;
  std::uint64_t untraced_ops = 0;
  // Pooled lanes (sweep only).
  double busy_s = 0.0;
  double lane_s = 0.0;
  std::uint64_t steals = 0;
  std::uint64_t trials_run = 0;

  void add_chain(std::size_t processed, std::size_t skipped, bool hooked,
                 std::size_t attempts, bool crc) {
    ++chain_runs;
    roi_processed += processed;
    roi_total += processed + skipped;
    if (hooked) {
      ++hooked_runs;
      hooked_processed += processed;
      hooked_total += processed + skipped;
    }
    sync_attempts += attempts;
    crc_ok += crc ? 1 : 0;
  }
  void add(const replay_outcome& r) {
    if (r.ran_chain)
      add_chain(r.roi_samples_processed, r.roi_samples_skipped, r.hooked,
                r.sync_attempts, r.result.crc_ok);
  }
};

std::vector<metric> layer_metrics(const replay_tally& tally,
                                  const layer_totals& t) {
  const double ops = static_cast<double>(t.roots);
  auto us = [&](layer l) {
    return ratio(t.self_ns[static_cast<std::size_t>(l)] * 1e-3, ops);
  };
  const counter_snapshot& c = tally.counters;
  const tail_estimate trial_tail = tail_percentile(t.trial_ns, 99.0);
  const tail_estimate packet_tail = tail_percentile(t.packet_ns, 99.0);
  auto p50_us = [](const std::vector<double>& ns) {
    return ns.empty() ? 0.0 : median(ns) * 1e-3;
  };
  const double traced_rate = ratio(static_cast<double>(tally.traced_ops), tally.traced_s);
  const double untraced_rate =
      ratio(static_cast<double>(tally.untraced_ops), tally.untraced_s);
  const double trial_root_self =
      t.calls[static_cast<std::size_t>(layer::trial)] > 0
          ? t.root_self_ns * 1e-3 / ops
          : 0.0;
  return {
      {"reader.excitation.us", us(layer::excitation), "us"},
      {"reader.excitation.cache_hit_frac",
       hit_fraction(c.excitation_hits, c.excitation_misses), "frac"},
      {"channel.forward.us", us(layer::channel_forward), "us"},
      {"channel.backscatter.us", us(layer::channel_backscatter), "us"},
      {"channel.awgn.us", us(layer::awgn), "us"},
      {"channel.awgn.cache_hit_frac", hit_fraction(c.noise_hits, c.noise_misses),
       "frac"},
      {"tag.wake.us", us(layer::wake), "us"},
      {"tag.modulate.us", us(layer::modulate), "us"},
      {"impair.us", us(layer::impair), "us"},
      {"fd.receive_chain.us", us(layer::receive_chain), "us"},
      {"fd.roi_frac",
       ratio(static_cast<double>(tally.roi_processed),
             static_cast<double>(tally.roi_total)),
       "frac"},
      {"fd.hooked_trials", static_cast<double>(tally.hooked_runs), "count"},
      {"fd.hooked_roi_frac",
       ratio(static_cast<double>(tally.hooked_processed),
             static_cast<double>(tally.hooked_total)),
       "frac"},
      {"reader.decode.us", us(layer::decode), "us"},
      {"reader.decode.sync_attempts",
       ratio(static_cast<double>(tally.sync_attempts),
             static_cast<double>(tally.chain_runs)),
       "count"},
      {"reader.decode.crc_ok_frac",
       ratio(static_cast<double>(tally.crc_ok),
             static_cast<double>(tally.chain_runs)),
       "frac"},
      {"reader.slicer.us", us(layer::slicer), "us"},
      {"sim.oracle.us", us(layer::oracle), "us"},
      {"sim.trial.self_us", trial_root_self, "us"},
      {"sim.scheduler.busy_frac", ratio(tally.busy_s, tally.lane_s), "frac"},
      {"sim.scheduler.steals", static_cast<double>(tally.steals), "count"},
      {"sim.rate_adaptation.trials_run", static_cast<double>(tally.trials_run),
       "count"},
      {"dsp.fir_ls.correlation",
       ratio(static_cast<double>(c.fir_ls_correlation), ops), "1/op"},
      {"dsp.fir_ls.vectorized",
       ratio(static_cast<double>(c.fir_ls_vectorized), ops), "1/op"},
      {"dsp.fir_ls.scalar", ratio(static_cast<double>(c.fir_ls_scalar), ops),
       "1/op"},
      {"trial.us_p50", p50_us(t.trial_ns), "us"},
      {"trial.us_p99", trial_tail.value * 1e-3, "us"},
      {"trial.us_p99.pct", trial_tail.percentile, "%"},
      {"trial.samples", static_cast<double>(trial_tail.samples), "count"},
      {"packet.us_p50", p50_us(t.packet_ns), "us"},
      {"packet.us_p99", packet_tail.value * 1e-3, "us"},
      {"packet.us_p99.pct", packet_tail.percentile, "%"},
      {"packet.samples", static_cast<double>(packet_tail.samples), "count"},
      {"obs.trace_overhead_frac",
       untraced_rate > 0.0 ? 1.0 - traced_rate / untraced_rate : 0.0, "frac"},
      {"trace.replay_mismatches", static_cast<double>(tally.mismatches),
       "count"},
      {"trace.coverage_frac", t.coverage(), "frac"},
      {"trace.ops", ops, "count"},
  };
}

void finish_trace(run_result& out, const run_options& o, const tracer& tr,
                  const replay_tally& tally) {
  const layer_totals totals = summarize(tr.logs());
  out.metrics = layer_metrics(tally, totals);
  if (!o.trace_path.empty() && !tr.write_csv(o.trace_path, o.trace_header))
    out.notes.push_back("could not write span file " + o.trace_path);
  if (tally.mismatches > 0)
    out.notes.push_back(format(
        "trace stale: %.0f replayed operations differ from the program's",
        static_cast<double>(tally.mismatches)));
  if (totals.coverage() < 0.97)
    out.notes.push_back(format("layer coverage %.4f is below 0.97",
                               totals.coverage()));
}

// --- trial_cold / trial_impaired -------------------------------------------

run_result run_trials(const run_options& o, bool impaired) {
  sim::scoped_thread_count pin(1);
  run_result out;
  trial_plan plan;
  plan.base = impaired ? campaign_link() : fig08_mid();
  plan.impaired = impaired;
  const std::uint64_t block = impaired ? kImpairedBlock : kColdBlock;
  const double yield_floor = impaired ? kImpairedYieldFloor : kColdYieldFloor;

  std::unique_ptr<sim::trial_workspace> ws;
  sim::scenario_config cfg;
  const double setup_s = timed_setup(1, [&](int rep, calibrated_timer& timer) {
    cfg = plan.base;
    ws = std::make_unique<sim::trial_workspace>();
    const std::uint64_t space =
        seed_space(0, purpose::warmup, static_cast<std::uint64_t>(rep));
    for (std::uint64_t k = 0; k < kWarmupTrials; ++k) {
      if (k % kTrialsPerSample == 0) timer.sample();
      plan.configure(cfg, space, k);
      sim::run_backscatter_trial(cfg, *ws);
    }
  });

  // The program's trial at seed derive_trial_seed(space, i); returns
  // whether its output check passed. Every call is one counted operation.
  std::uint64_t crc_ok = 0;
  auto trial = [&](std::uint64_t space, std::uint64_t i,
                   sim::trial_result* result) {
    plan.configure(cfg, space, i);
    try {
      *result = sim::run_backscatter_trial(cfg, *ws);
    } catch (const std::exception& e) {
      out.notes.push_back(std::string("trial threw: ") + e.what());
      return false;
    }
    crc_ok += result->crc_ok ? 1 : 0;
    return trial_output_ok(*result);
  };

  const auto deadline =
      steady::now() + std::chrono::duration<double>(o.seconds);
  std::uint64_t i = 0;
  if (!o.trace) {
    block_rates rates;
    do {
      calibrated_timer timer(1);
      for (std::uint64_t k = 0; k < block; ++k, ++i) {
        if (k > 0 && k % kTrialsPerSample == 0) timer.sample();
        sim::trial_result r;
        count_op(out, trial(o.seed, i, &r));
      }
      rates.add(static_cast<double>(block), timer);
    } while (steady::now() < deadline);
    add_end_to_end(out, rates, setup_s, "trials_per_s");
    check_yield(out, crc_ok, out.attempted, yield_floor);
    return out;
  }

  // Traced: every operation is a traced replay at a fresh seed of its own,
  // followed by the program's own trial at that seed to check that the
  // replay reproduces it; every other operation is preceded by an
  // untraced trial at the measurement seed, the overhead baseline.
  tracer tr;
  span_log& log = tr.local();
  replay_tally tally;
  const std::uint64_t traced_space = seed_space(o.seed, purpose::traced);
  do {
    if (i % 2 == 0) {
      sim::trial_result r;
      const auto t0 = steady::now();
      const bool ok = trial(o.seed, i, &r);
      tally.untraced_s += seconds_since(t0);
      ++tally.untraced_ops;
      count_op(out, ok);
    }

    plan.configure(cfg, traced_space, i);
    const counter_snapshot before = counter_snapshot::take();
    const auto t1 = steady::now();
    replay_outcome rep;
    bool replay_ok = true;
    try {
      rep = replay_trial(cfg, *ws, &log, i);
    } catch (const std::exception& e) {
      out.notes.push_back(std::string("replay threw: ") + e.what());
      replay_ok = false;
    }
    tally.traced_s += seconds_since(t1);
    tally.counters += counter_snapshot::take().since(before);
    ++tally.traced_ops;
    tally.add(rep);
    sim::trial_result real;
    const bool real_ok = trial(traced_space, i, &real);
    count_op(out, replay_ok && real_ok && trial_output_ok(rep.result));
    if (!same_outcome(rep.result, real)) ++tally.mismatches;
    ++i;
  } while (steady::now() < deadline);
  finish_trace(out, o, tr, tally);
  check_yield(out, crc_ok, out.attempted, yield_floor);
  return out;
}

// --- stream_reader ----------------------------------------------------------

constexpr std::size_t kStreamPackets = 256;
constexpr std::size_t kFeedChunk = std::size_t{1} << 14;
// Decode-yield floor of a capture's first pass. The capture is fixed by the
// seed, so each seed's yield is one deterministic number; over seeds 1-56
// it ranged 129-252 of the 256 packets (mean 226) with a long low tail
// (seed 38: 129, seed 41: 150). The floor sits at half the lowest share.
constexpr double kStreamYieldFloor = 0.25;

sim::stream_scenario_config stream_scenario(std::uint64_t seed) {
  sim::stream_scenario_config sc;
  sc.scenario = fig08_mid();
  sc.scenario.seed = seed_space(seed, purpose::stream);
  sc.n_packets = kStreamPackets;
  sc.forward_drift.coherence_packets = 16.0;
  sc.lo_drift.step_std_rad = 0.02;
  sc.threads = 1;
  sc.feed_chunk_samples = kFeedChunk;
  return sc;
}

reader::stream_config session_config(const sim::stream_scenario_config& sc) {
  reader::stream_config scfg;
  scfg.tag = sc.scenario.tag;
  scfg.decoder = sc.scenario.decoder;
  scfg.chain = sc.scenario.chain;
  scfg.threads = sc.threads;
  scfg.queue_capacity = sc.queue_capacity;
  scfg.overflow = sc.overflow;
  return scfg;
}

// One pass of the capture through a fresh session; returns its wall time.
// With a timer, the calibration kernel runs every kPacketsPerSample
// packets (between feeds, outside the session's work).
double decode_pass(const sim::stream_capture& cap,
                   const reader::stream_config& scfg,
                   std::vector<packet_signature>& signatures,
                   calibrated_timer* timer = nullptr) {
  const auto t0 = steady::now();
  reader::stream_session session(cap.x, cap.y, cap.schedule, scfg);
  std::size_t next_sample = kPacketsPerSample;
  for (std::size_t fed = 0; fed < cap.y.size(); fed += kFeedChunk) {
    session.feed(std::min(kFeedChunk, cap.y.size() - fed));
    if (timer && next_sample < cap.schedule.size() &&
        cap.schedule[next_sample].end <= fed + kFeedChunk) {
      timer->sample();
      next_sample += kPacketsPerSample;
    }
  }
  session.finish();
  const double wall = seconds_since(t0);
  signatures = signatures_of(session.results());
  return wall;
}

// The session's per-packet calls made directly with spans: the decoder's
// read window as the chain's region of interest, run_receive_chain, decode.
void replay_stream_pass(const sim::stream_capture& cap,
                        const sim::stream_scenario_config& sc, span_log& log,
                        std::uint64_t op_base, replay_tally& tally,
                        std::vector<packet_signature>& signatures) {
  const reader::backfi_decoder decoder(sc.scenario.tag, sc.scenario.decoder);
  fd::receive_chain_config chain_cfg = sc.scenario.chain;
  fd::receive_chain_scratch chain_scratch;
  reader::decoder_scratch decode_scratch;
  signatures.clear();
  for (std::size_t k = 0; k < cap.schedule.size(); ++k) {
    const reader::stream_packet& p = cap.schedule[k];
    const std::size_t len = p.end - p.begin;
    const auto xseg = std::span<const cplx>(cap.x).subspan(p.begin, len);
    const auto yseg = std::span<const cplx>(cap.y).subspan(p.begin, len);
    const std::uint64_t op = op_base + k;
    scoped_span packet_span(&log, layer::packet, op);
    {
      scoped_span s(&log, layer::decode, op);
      chain_cfg.roi = decoder.read_window_bounds(len, p.wake_end - p.begin,
                                                 p.payload_bits);
    }
    scoped_span chain_span(&log, layer::receive_chain, op);
    const fd::receive_chain_result chain =
        fd::run_receive_chain(xseg, yseg, p.wake_end - p.begin,
                              p.silent_end - p.begin, chain_cfg, &chain_scratch);
    chain_span.stop();
    scoped_span decode_span(&log, layer::decode, op);
    const reader::decode_result d =
        decoder.decode(xseg, std::span<const cplx>(chain_scratch.cleaned),
                       p.wake_end - p.begin, p.payload_bits, &decode_scratch);
    decode_span.stop();
    packet_span.stop();
    tally.add_chain(chain.roi_samples_processed, chain.roi_samples_skipped,
                    false, d.sync_attempts, d.crc_ok);
    signatures.push_back(
        {d.sync_found, d.decoded, d.crc_ok, d.decoded ? d.payload : phy::bitvec{}});
  }
}

run_result run_stream(const run_options& o) {
  sim::scoped_thread_count pin(1);
  run_result out;
  const sim::stream_scenario_config sc = stream_scenario(o.seed);
  const reader::stream_config scfg = session_config(sc);

  // Reference decode (builds its own copy of the capture; a check, so it
  // is neither set-up nor measured).
  const auto t_ref = steady::now();
  const std::vector<packet_signature> reference =
      signatures_of(sim::run_stream_batch_reference(sc));
  out.notes.push_back(format("batch reference decoded in %.3f s (untimed)",
                             seconds_since(t_ref)));

  std::unique_ptr<sim::stream_capture> cap;
  const double setup_s = timed_setup(1, [&](int, calibrated_timer&) {
    cap.reset();
    cap = std::make_unique<sim::stream_capture>(sim::build_stream_capture(sc));
  });

  // First pass: against the batch reference and the ground truth.
  std::vector<packet_signature> first;
  decode_pass(*cap, scfg, first);
  const std::size_t ref_mismatch = count_mismatches(reference, first);
  const std::size_t wrong = count_wrong_payloads(first, *cap);
  for (std::size_t k = 0; k < first.size(); ++k) count_op(out, true);
  if (ref_mismatch + wrong > 0) {
    out.failed += ref_mismatch + wrong;
    out.correct = false;
    out.notes.push_back(format(
        "stream check failed: %.0f packets differ from the batch reference, "
        "%.0f CRC-ok packets carry a wrong payload",
        static_cast<double>(ref_mismatch), static_cast<double>(wrong)));
  }
  std::size_t crc_ok = 0;
  for (const packet_signature& s : first) crc_ok += s.crc_ok ? 1 : 0;
  check_yield(out, crc_ok, cap->schedule.size(), kStreamYieldFloor);

  auto check_pass = [&](const std::vector<packet_signature>& got) {
    const std::size_t bad = count_mismatches(first, got);
    out.attempted += got.size();
    if (bad > 0) {
      out.failed += bad;
      out.correct = false;
      out.notes.push_back(format("stream pass differs from the first in %.0f packets",
                                 static_cast<double>(bad)));
    }
  };

  const auto deadline =
      steady::now() + std::chrono::duration<double>(o.seconds);
  std::vector<packet_signature> got;
  if (!o.trace) {
    block_rates rates;
    do {
      calibrated_timer timer(1);
      decode_pass(*cap, scfg, got, &timer);
      rates.add(static_cast<double>(cap->schedule.size()), timer);
      check_pass(got);
    } while (steady::now() < deadline);
    add_end_to_end(out, rates, setup_s, "packets_per_s");
    return out;
  }

  tracer tr;
  span_log& log = tr.local();
  replay_tally tally;
  std::uint64_t pass = 0;
  do {
    tally.untraced_s += decode_pass(*cap, scfg, got);
    tally.untraced_ops += got.size();
    check_pass(got);

    const counter_snapshot before = counter_snapshot::take();
    const auto t0 = steady::now();
    replay_stream_pass(*cap, sc, log, pass * kStreamPackets, tally, got);
    tally.traced_s += seconds_since(t0);
    tally.counters += counter_snapshot::take().since(before);
    tally.traced_ops += got.size();
    tally.mismatches += count_mismatches(first, got);
    out.attempted += got.size();
    ++pass;
  } while (steady::now() < deadline);
  finish_trace(out, o, tr, tally);
  return out;
}

// --- sweep_fig08 -------------------------------------------------------------

constexpr double kDistances[] = {0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
constexpr std::size_t kPreambles[] = {32, 96};
constexpr std::size_t kCells = std::size(kDistances) * std::size(kPreambles);
// Trials per rate point (fig08 itself runs 40): keeps one serial pass over
// the grid near 2.5 s, so a run takes the median of several passes.
constexpr int kSweepTrials = 4;

struct sweep_cell {
  sim::scenario_config base;
  double distance_m = 0.0;
};

// fig08's own grid and seeds: cell (d, preamble) scans with base seed
// d * 1000 + preamble, exactly as the figure runs. The seeds decide which
// rate points the scan visits, so seeded grids would change the work per
// pass from one workload seed to the next; the sweep therefore repeats the
// figure's inputs, and its trial seeds still repeat across rate points the
// way the real sweep's do.
std::vector<sweep_cell> sweep_grid() {
  std::vector<sweep_cell> cells;
  for (const double d : kDistances)
    for (const std::size_t pre : kPreambles) {
      sweep_cell c{fig08_base(pre), d};
      c.base.seed = static_cast<std::uint64_t>(d * 1000) + pre;
      cells.push_back(std::move(c));
    }
  return cells;
}

// One pass over the grid; with a timer, the calibration kernel runs on
// every lane between cells.
std::vector<cell_outcome> sweep_pass(const std::vector<sweep_cell>& cells,
                                     calibrated_timer* timer = nullptr) {
  std::vector<cell_outcome> out;
  for (const sweep_cell& c : cells) {
    if (timer && !out.empty()) timer->sample();
    out.push_back(outcome_of(sim::find_max_goodput(c.base, c.distance_m,
                                                   kSweepTrials)));
  }
  return out;
}

// find_max_goodput made of public calls: the same descending-throughput
// waves of thread_count() points, each wave's (point x trial) grid run
// through sim::sweep_for with every trial replayed under spans.
cell_outcome replay_max_goodput(const sweep_cell& cell, tracer& tr,
                                replay_tally& tally,
                                std::atomic<std::uint64_t>& next_op) {
  std::vector<sim::operating_point> points = sim::all_operating_points();
  std::sort(points.begin(), points.end(),
            [](const sim::operating_point& a, const sim::operating_point& b) {
              return a.throughput_bps > b.throughput_bps;
            });
  std::optional<sim::link_evaluation> best;
  const std::size_t wave = std::max<std::size_t>(sim::thread_count(), 1);
  const std::size_t trials = kSweepTrials;
  for (std::size_t begin = 0; begin < points.size();) {
    if (best && points[begin].throughput_bps <= best->goodput_bps) break;
    const std::size_t end = std::min(points.size(), begin + wave);
    const std::size_t n = (end - begin) * trials;
    std::vector<replay_outcome> outcomes(n);
    const sim::sweep_stats stats = sim::sweep_for(n, [&](std::size_t i) {
      thread_local sim::trial_workspace ws;
      sim::scenario_config config = sim::scenario_for_point(
          cell.base, points[begin + i / trials].rate, cell.distance_m);
      config.seed = sim::derive_trial_seed(config.seed, i % trials);
      outcomes[i] = replay_trial(config, ws, &tr.local(), next_op++);
    });
    tally.busy_s += stats.busy_seconds_total();
    tally.lane_s += stats.wall_seconds * static_cast<double>(stats.threads);
    tally.steals += stats.steals;
    tally.trials_run += n;
    for (const replay_outcome& r : outcomes) tally.add(r);
    bool stopped = false;
    for (std::size_t j = 0; j < end - begin; ++j) {
      const sim::operating_point& point = points[begin + j];
      if (best && point.throughput_bps <= best->goodput_bps) {
        stopped = true;
        break;
      }
      int failures = 0;
      for (std::size_t t = 0; t < trials; ++t) {
        const sim::trial_result& r = outcomes[j * trials + t].result;
        failures += (!r.crc_ok || r.bit_errors != 0) ? 1 : 0;
      }
      sim::link_evaluation eval;
      eval.point = point;
      eval.packet_error_rate =
          static_cast<double>(failures) / static_cast<double>(trials);
      eval.goodput_bps = point.throughput_bps * (1.0 - eval.packet_error_rate);
      eval.usable = eval.packet_error_rate < 1.0;
      if (eval.usable && (!best || eval.goodput_bps > best->goodput_bps))
        best = eval;
    }
    if (stopped) break;
    begin = end;
  }
  return outcome_of(best);
}

// Range the paper's tag decodes at (Fig. 8 reaches 1 Mbps at 5 m): a cell
// within it that finds no usable operating point is a wrong output.
constexpr double kDecodableRangeM = 5.0;

// Record the first pass's choices and check them against the figure.
void check_first_sweep(const std::vector<sweep_cell>& cells,
                       const std::vector<cell_outcome>& outcomes,
                       run_result& out) {
  for (std::size_t c = 0; c < cells.size() && c < outcomes.size(); ++c) {
    const cell_outcome& o = outcomes[c];
    char buf[160];
    if (o.found)
      std::snprintf(buf, sizeof buf, "%.1f m, %zu us preamble: %s %s @ %.2f MHz, PER %.2f",
                    cells[c].distance_m, cells[c].base.tag.preamble_us,
                    tag::modulation_name(o.modulation),
                    phy::code_rate_name(o.coding), o.symbol_rate_hz / 1e6,
                    o.per);
    else
      std::snprintf(buf, sizeof buf, "%.1f m, %zu us preamble: no decode",
                    cells[c].distance_m, cells[c].base.tag.preamble_us);
    out.notes.push_back(buf);
    if (!o.found && cells[c].distance_m <= kDecodableRangeM) {
      ++out.failed;
      out.correct = false;
      out.notes.push_back("  ^ no operating point decodes within the paper's range");
    }
  }
}

run_result run_sweep(const run_options& o) {
  // The untraced run times the sweep on one lane. Pooled over all vCPUs of
  // a shared host, the pass time follows the host's steal time (21% steal
  // during a 4-lane pass; 4-lane cells/s fell 20% in one such phase while
  // 1-lane cells/s moved 3%), so only the serial timing is steady enough
  // to gate on. The traced run replays the sweep on min(4, nproc) pooled
  // lanes, where the scheduler's busy fraction and steals mean something.
  const std::size_t lanes = o.trace ? o.lanes : 1;
  sim::scoped_thread_count pin(lanes);
  run_result out;

  // Set-up: the grid and warm lanes (pool threads, per-lane workspaces).
  std::vector<sweep_cell> cells;
  const double setup_s = timed_setup(lanes, [&](int rep, calibrated_timer&) {
    cells = sweep_grid();
    const std::uint64_t space =
        seed_space(0, purpose::warmup, static_cast<std::uint64_t>(rep));
    sim::sweep_for(lanes * kWarmupTrials, [&](std::size_t t) {
      sim::scenario_config c = fig08_mid();
      c.seed = sim::derive_trial_seed(space, t);
      sim::run_backscatter_trial(c);
    });
  });

  // One timed pass; every pass must choose what the first one chose.
  std::vector<cell_outcome> first;
  std::vector<double> hit_fracs;
  auto timed_pass = [&](calibrated_timer* timer) {
    const counter_snapshot before = counter_snapshot::take();
    const auto t0 = steady::now();
    std::vector<cell_outcome> got;
    try {
      got = sweep_pass(cells, timer);
    } catch (const std::exception& e) {
      out.notes.push_back(std::string("sweep threw: ") + e.what());
      out.attempted += kCells;
      out.failed += kCells;
      out.correct = false;
      return seconds_since(t0);
    }
    const double wall = seconds_since(t0);
    const counter_snapshot d = counter_snapshot::take().since(before);
    hit_fracs.push_back(hit_fraction(d.noise_hits, d.noise_misses));
    out.attempted += got.size();
    if (first.empty()) {
      first = std::move(got);
      check_first_sweep(cells, first, out);
      return wall;
    }
    const std::size_t bad = count_mismatches(first, got);
    if (bad > 0) {
      out.failed += bad;
      out.correct = false;
      out.notes.push_back(format("%.0f sweep cells differ from the first pass",
                                 static_cast<double>(bad)));
    }
    return wall;
  };

  const auto deadline =
      steady::now() + std::chrono::duration<double>(o.seconds);
  if (!o.trace) {
    block_rates rates;
    do {
      calibrated_timer timer(lanes);
      timed_pass(&timer);
      rates.add(static_cast<double>(kCells), timer);
    } while (steady::now() < deadline);
    add_end_to_end(out, rates, setup_s, "cells_per_s");
    out.notes.push_back(format(
        "sweep_s = %.4f s at reference speed, %.4f s wall clock (%.0f cells)",
        kCells / median(rates.scaled), kCells / median(rates.raw),
        static_cast<double>(kCells)));
    out.notes.push_back(format(
        "noise-cache hit fraction: first pass %.4f, median pass %.4f",
        hit_fracs.empty() ? 0.0 : hit_fracs.front(),
        hit_fracs.empty() ? 0.0 : median(hit_fracs)));
    return out;
  }

  // Traced: alternate an untraced pass with the traced replay of the same
  // grid; the replay must choose what the program chose.
  tracer tr;
  replay_tally tally;
  std::atomic<std::uint64_t> next_op{0};
  do {
    tally.untraced_s += timed_pass(nullptr);
    tally.untraced_ops += kCells;

    const counter_snapshot before = counter_snapshot::take();
    const auto t0 = steady::now();
    std::vector<cell_outcome> replayed;
    for (const sweep_cell& c : cells)
      replayed.push_back(replay_max_goodput(c, tr, tally, next_op));
    tally.traced_s += seconds_since(t0);
    tally.counters += counter_snapshot::take().since(before);
    tally.traced_ops += replayed.size();
    tally.mismatches += count_mismatches(first, replayed);
  } while (steady::now() < deadline);
  finish_trace(out, o, tr, tally);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "trial_cold", "sweep_fig08", "stream_reader", "trial_impaired"};
  return names;
}

run_result run_workload(const run_options& o) {
  if (o.workload == "trial_cold") return run_trials(o, false);
  if (o.workload == "trial_impaired") return run_trials(o, true);
  if (o.workload == "stream_reader") return run_stream(o);
  if (o.workload == "sweep_fig08") return run_sweep(o);
  throw std::invalid_argument("unknown workload: " + o.workload);
}

}  // namespace perfbench
