// Sweep-level work-stealing scheduler for Monte-Carlo evaluations.
//
// The Monte-Carlo evaluators flatten their whole (sweep point x trial)
// space into one global pool of independent tasks and hand it to
// sweep_for. The pool is split into per-lane contiguous ranges claimed in
// fixed-size chunks through cache-line-padded atomic cursors: a lane's
// owner claims chunks from its own range, and a lane that runs dry steals
// chunks from the fullest remaining victim. Compared to the PR 2 pool
// (one global mutex acquired per index) this costs one uncontended
// fetch_add per *chunk* and shares no mutable cache line between lanes,
// so trial loops scale with the hardware instead of serializing on the
// pool bookkeeping.
//
// Determinism contract: the caller derives every task's RNG seed from (base seed, flattened index)
// alone and each index writes only its own result slot, so results —
// and index-ordered collector merges — are bit-identical at any
// BACKFI_THREADS. The scheduler only changes *which lane* runs an index,
// never what the index computes or the order results are committed in.
//
// The chunk size is a pure function of the task count (never of the
// thread count), so the deterministic scheduler telemetry
// (sim.scheduler.tasks / sim.scheduler.chunks) is identical at any
// thread count; execution-dependent quantities (steals, per-lane busy
// time) are exported under runtime.scheduler.*, which the deterministic
// export profile excludes alongside timing.*.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace backfi::obs {
class collector;
}

namespace backfi::sim {

/// Chunking policy of one sweep. chunk == 0 picks the automatic size,
/// max(1, min(64, n / 64)): single-index chunks for the trial-sized pools
/// (hundreds of multi-millisecond tasks) and coarser chunks once a sweep
/// is large enough that per-chunk claim overhead could show up. The auto
/// size depends only on n, keeping the chunk layout — and therefore the
/// deterministic chunk telemetry — independent of the thread count.
std::size_t sweep_chunk_size(std::size_t n, std::size_t chunk_option);

/// Execution report of one sweep_for call. Everything here describes how
/// the work was *executed*; the results the body produced are unaffected.
struct sweep_stats {
  std::size_t threads = 1;   ///< lanes that participated
  std::size_t tasks = 0;     ///< total flattened task count (== n)
  std::size_t chunk = 1;     ///< chunk size used
  std::size_t chunks = 0;    ///< ceil(n / chunk)
  std::size_t steals = 0;    ///< chunks claimed from another lane's range
  double wall_seconds = 0.0;
  /// Per-lane time spent inside the task body (one entry per lane; the
  /// calling thread is lane 0). Written only by the owning lane during the
  /// sweep, published to the caller at the join.
  std::vector<double> busy_seconds;

  double busy_seconds_total() const {
    double total = 0.0;
    for (const double b : busy_seconds) total += b;
    return total;
  }
  /// Fraction of lane wall-clock spent in task bodies: busy / (wall *
  /// lanes). 1.0 means no lane ever waited on the pool.
  double efficiency() const {
    const double denom = wall_seconds * static_cast<double>(threads);
    return denom > 0.0 ? busy_seconds_total() / denom : 1.0;
  }
};

/// Run body(0) ... body(n - 1) across the worker pool with chunked
/// work-stealing. Returns after every index has completed, rethrows the
/// first body exception (the remaining indices are abandoned), runs
/// serially in index order when thread_count() <= 1 or when called from
/// inside a pool worker, and reports how the sweep executed. `chunk` == 0 selects
/// sweep_chunk_size(n, 0).
sweep_stats sweep_for(std::size_t n,
                      const std::function<void(std::size_t)>& body,
                      std::size_t chunk = 0);

/// Range variant: each claimed chunk is delivered to the body as one
/// contiguous [begin, end) range instead of per-index calls, so the body
/// can batch per-chunk setup (a shared scenario copy, one pass through
/// the vectorized synthesis kernels) across the trials of the chunk. The
/// chunk layout is identical to sweep_for's (pure function of n, never of
/// the thread count) and bodies must keep per-index results a function of
/// the index alone, so everything the determinism contract pins —
/// results, collector merges, sim.scheduler.* counters — is unchanged.
/// Serial fallback delivers the single range [0, n).
sweep_stats sweep_for_ranges(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t chunk = 0);

/// Export one sweep's telemetry to `c` (null-safe no-op):
///   sim.scheduler.sweeps / .tasks / .chunks   counters, deterministic
///   runtime.scheduler.*                       gauges, execution-dependent
/// The counters are pure functions of (n, chunk option) so merged exports
/// stay bit-identical at any BACKFI_THREADS; the gauges ride in the same
/// exempt group as timing.* and runtime.workspace.*.
void report_sweep_stats(obs::collector* c, const sweep_stats& stats);

/// Gauges-only variant for sweeps whose shape depends on the thread count
/// (find_max_goodput waves are thread_count() points wide): emits the
/// runtime.scheduler.* gauges but none of the sim.scheduler.* counters, so
/// deterministic exports stay thread-count invariant.
void report_sweep_runtime(obs::collector* c, const sweep_stats& stats);

/// Seed derivation shared by the flattened trial evaluators
/// (packet_error_rate, evaluate_link, find_max_goodput, fault campaign
/// polls): the per-trial seed depends only on (base seed, flattened trial
/// index), never on lane, chunk, or thread count. This is the PR 2 formula
/// verbatim — the pinned trial literals depend on it.
constexpr std::uint64_t derive_trial_seed(std::uint64_t base_seed,
                                          std::uint64_t trial_index) {
  return base_seed * 1000003ULL + trial_index;
}

/// Coexistence-sweep variant of the same rule (distinct multiplier so tag
/// and client Monte-Carlo streams never collide; PR 2 formula verbatim).
constexpr std::uint64_t derive_coexistence_seed(std::uint64_t base_seed,
                                                std::uint64_t trial_index) {
  return base_seed * 7919ULL + trial_index;
}

}  // namespace backfi::sim
