// Thread-count control for the deterministic sweep scheduler.
//
// Every parallel loop runs through sweep_for / sweep_for_ranges
// (scheduler.h), whose determinism contract keeps results bit-identical to
// the serial loop at any thread count. This header holds the knob those
// loops read: how many threads they may use, and how a caller changes that
// for a region.
#pragma once

#include <cstddef>

namespace backfi::sim {

/// Sanity cap on pool workers: more than this is configuration error, not
/// tuning. thread_count() and the scheduler both clamp to it.
inline constexpr std::size_t max_pool_threads = 256;

/// True on threads currently executing a sweep_for body (pool workers, and
/// the calling thread while it participates). Nested loops on such threads
/// run serially in index order.
bool in_parallel_region();

/// Number of threads a sweep may use right now: the innermost
/// scoped_thread_count override if any, else the BACKFI_THREADS environment
/// variable, else std::thread::hardware_concurrency.
std::size_t thread_count();

/// RAII thread-count override (restores the previous override on exit).
/// Used by perf_kernels to measure 1/2/4-thread scaling in one process.
class scoped_thread_count {
 public:
  explicit scoped_thread_count(std::size_t n);
  ~scoped_thread_count();
  scoped_thread_count(const scoped_thread_count&) = delete;
  scoped_thread_count& operator=(const scoped_thread_count&) = delete;

 private:
  std::size_t previous_;
};

}  // namespace backfi::sim
