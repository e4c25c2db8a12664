// perf_kernels: the DSP/performance-layer benchmark.
//
// Part 1 prints the thread scaling of packet_error_rate, including the
// bit-identity check that the parallel result equals the serial one.
// Part 2 runs google-benchmark timings of the DSP kernels the trial runs
// (FFT plan, windowed convolution) and of whole trials, and writes
// BENCH_dsp.json (override with --benchmark_out=FILE) so the perf
// trajectory of the DSP layer is recorded per build.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "dsp/fft_plan.h"
#include "dsp/fir.h"
#include "dsp/rng.h"
#include "sim/backscatter_sim.h"
#include "sim/parallel.h"

namespace {

using namespace backfi;

cvec random_vector(std::size_t n, std::uint64_t seed) {
  dsp::rng gen(seed);
  cvec out(n);
  for (auto& v : out) v = gen.complex_gaussian();
  return out;
}

template <typename Fn>
double median_seconds(Fn&& fn, int reps) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  return bench::median(samples);
}

sim::scenario_config per_scaling_config() {
  sim::scenario_config cfg;
  cfg.tag_distance_m = 4.5;
  cfg.payload_bits = 400;
  cfg.seed = 42;
  return cfg;
}

int print_speedup_summary() {
  bench::print_header("perf_kernels", "sweep thread scaling");
  bench::telemetry_session telemetry("perf");
  std::printf("host: hardware_concurrency=%u, threads=%zu\n",
              std::thread::hardware_concurrency(), sim::thread_count());

  {  // packet_error_rate thread scaling + bit-identity.
    sim::scenario_config cfg = per_scaling_config();
    cfg.collector = telemetry.collector();
    constexpr int kTrials = 24;
    double per_serial = 0.0;
    bool identical = true;
    double t_serial = 0.0;
    std::printf("packet_error_rate scaling (%d trials, seed %llu):\n", kTrials,
                static_cast<unsigned long long>(cfg.seed));
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      sim::scoped_thread_count guard(threads);
      double per = 0.0;
      const double t = median_seconds(
          [&] { per = sim::packet_error_rate(cfg, kTrials); }, 3);
      if (threads == 1) {
        per_serial = per;
        t_serial = t;
      } else if (per != per_serial) {
        identical = false;
      }
      std::printf("  threads=%zu   wall %8.1f ms   speedup %4.2fx   PER %.17g\n",
                  threads, t * 1e3, t_serial / t, per);
    }
    std::printf("  parallel PER bit-identical to serial: %s\n",
                identical ? "yes" : "NO — DETERMINISM BUG");
  }

  const obs::probe required[] = {
      obs::probe::trials,
      obs::probe::total_depth_db,
      obs::probe::post_mrc_snr_db,
  };
  return telemetry.finish(required);
}

// --- google-benchmark timings (recorded in BENCH_dsp.json) ---

void bm_fft_plan(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const cvec base = random_vector(n, 3);
  cvec buf = base;
  const dsp::fft_plan& plan = dsp::get_fft_plan(n, dsp::fft_direction::forward);
  for (auto _ : state) {
    buf = base;
    plan.execute(buf);
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(bm_fft_plan)->Arg(64)->Arg(4096)->Unit(benchmark::kMicrosecond);

void bm_convolve_same_window(benchmark::State& state) {
  // The synthesis and canceller configuration: short taps, one 4096-sample
  // tile of a long capture.
  const cvec x = random_vector(1 << 16, 5);
  const cvec h = random_vector(static_cast<std::size_t>(state.range(0)), 6);
  cvec out(4096);
  for (auto _ : state) {
    dsp::convolve_same_window(x, h, 1 << 14, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(bm_convolve_same_window)->Arg(8)->Arg(64)->Unit(benchmark::kMicrosecond);

void bm_backscatter_trial(benchmark::State& state) {
  sim::scenario_config cfg = per_scaling_config();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    benchmark::DoNotOptimize(sim::run_backscatter_trial(cfg));
  }
}
BENCHMARK(bm_backscatter_trial)->Unit(benchmark::kMillisecond);

void bm_packet_error_rate(benchmark::State& state) {
  const sim::scenario_config cfg = per_scaling_config();
  sim::scoped_thread_count guard(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::packet_error_rate(cfg, 16));
}
BENCHMARK(bm_packet_error_rate)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const int status = print_speedup_summary();
  // Default to recording BENCH_dsp.json next to the working directory so
  // CI can upload it; any explicit --benchmark_out wins.
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_dsp.json";
  std::string format_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int n_args = static_cast<int>(args.size());
  benchmark::Initialize(&n_args, args.data());
  benchmark::RunSpecifiedBenchmarks();
  return status;
}
