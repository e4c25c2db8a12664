// Public-call replay of sim::run_backscatter_trial for the traced run.
//
// The replay makes the trial's calls itself, one module at a time, through
// each module's public functions (build_excitation_into,
// draw_backscatter_channels, detect_wake, backscatter_into, add_awgn, the
// impairment hooks, run_receive_chain with the region of interest the
// stream session derives, backfi_decoder::decode, the oracle) and times
// every call with a span. Given the same scenario it draws the same random
// numbers in the same order, so its outcome must equal the trial's; the
// benchmark compares the two at the same seeds and counts mismatches,
// which mark the replay (and therefore the trace) as stale.
#pragma once

#include <cstdint>

#include "sim/backscatter_sim.h"
#include "trace.h"

namespace perfbench {

/// The replay's outcome plus what the trial result does not expose.
struct replay_outcome {
  backfi::sim::trial_result result;
  bool ran_chain = false;  ///< the trial reached the receive chain
  bool hooked = false;     ///< a front-end or post-cancel fault hook was on
  std::size_t roi_samples_processed = 0;
  std::size_t roi_samples_skipped = 0;
  std::size_t sync_attempts = 0;
};

/// Replay one trial on `workspace`, recording spans into `log` (nullable)
/// under operation id `op`.
replay_outcome replay_trial(const backfi::sim::scenario_config& config,
                            backfi::sim::trial_workspace& workspace,
                            span_log* log, std::uint64_t op);

/// True when two trial results agree on every outcome and link figure the
/// replay reproduces (stages, failure, errors, SNRs, depths, throughput).
bool same_outcome(const backfi::sim::trial_result& a,
                  const backfi::sim::trial_result& b);

}  // namespace perfbench
