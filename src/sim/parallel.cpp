#include "sim/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>

namespace backfi::sim {

namespace {

std::atomic<std::size_t> g_thread_override{0};

std::size_t default_thread_count() {
  static const std::size_t n = [] {
    if (const char* env = std::getenv("BACKFI_THREADS")) {
      char* end = nullptr;
      const unsigned long value = std::strtoul(env, &end, 10);
      if (end != env && value > 0) {
        return std::min<std::size_t>(value, max_pool_threads);
      }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<std::size_t>(hw) : std::size_t{1};
  }();
  return n;
}

}  // namespace

std::size_t thread_count() {
  const std::size_t override_value =
      g_thread_override.load(std::memory_order_relaxed);
  if (override_value > 0) {
    return std::min(override_value, max_pool_threads);
  }
  return default_thread_count();
}

scoped_thread_count::scoped_thread_count(std::size_t n)
    : previous_(g_thread_override.exchange(n, std::memory_order_relaxed)) {}

scoped_thread_count::~scoped_thread_count() {
  g_thread_override.store(previous_, std::memory_order_relaxed);
}

}  // namespace backfi::sim
