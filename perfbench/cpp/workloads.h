// The four workloads of the regime benchmark. Each runs closed-loop (the
// next operation starts when the previous one has finished) on at most
// min(4, nproc) lanes, from inputs derived only from the workload seed
// (sweep_fig08 uses fig08's own seeds).
//
//   trial_cold      serial fig08-mid trials, fresh seeds: replay caches miss
//   sweep_fig08     fixed-trial find_max_goodput over fig08's range x
//                   preamble grid, timed on one lane and traced on the
//                   pooled lanes: caches partly hit
//   stream_reader   a prebuilt 256-packet drifting capture decoded through a
//                   1-thread stream session: no synthesis at all
//   trial_impaired  serial campaign-link trials under the nine fault classes:
//                   fault hooks force the full-range receive chain
//
// An untraced run reports the end-to-end metrics with the simulator's
// collector null; a traced run replays the work through public calls with
// spans (trace.h, replay.h) and reports the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct run_options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;    ///< where the traced run writes its spans
  std::string trace_header;  ///< comment lines heading the span file
  std::size_t lanes = 1;     ///< min(4, nproc)
};

struct run_result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<metric> metrics;
  /// Human-readable lines (workload-specific names, check details).
  std::vector<std::string> notes;
};

/// Workload names, in the order the benchmark lists them.
const std::vector<std::string>& workload_names();

/// Run one workload; throws std::invalid_argument for an unknown name.
run_result run_workload(const run_options& options);

}  // namespace perfbench
