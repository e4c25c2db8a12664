#include "dsp/fft_plan.h"

#include <atomic>
#include <bit>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "dsp/math_util.h"

// NOTE: this translation unit must keep the default build flags (no FMA /
// per-file fast-math overrides): the twiddle recurrence and the butterflies
// must round exactly as the original per-call transform did.

namespace backfi::dsp {

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

namespace {

std::vector<std::uint32_t> build_swap_pairs(std::size_t n) {
  std::vector<std::uint32_t> pairs;
  std::size_t j = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (i < j) {
      pairs.push_back(static_cast<std::uint32_t>(i));
      pairs.push_back(static_cast<std::uint32_t>(j));
    }
    std::size_t mask = n >> 1;
    while (j & mask) {
      j ^= mask;
      mask >>= 1;
    }
    j |= mask;
  }
  return pairs;
}

}  // namespace

fft_plan::fft_plan(std::size_t n, fft_direction direction)
    : n_(n), direction_(direction) {
  if (!is_power_of_two(n))
    throw std::invalid_argument("fft_plan: size must be a power of two");
  swap_pairs_ = build_swap_pairs(n);
  const bool inverse = direction == fft_direction::inverse;
  // Per-stage recurrence w *= w_len: the tabled values are the exact
  // doubles the original transform computed on the fly.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    offsets_.push_back(twiddles_.size());
    const double angle = (inverse ? two_pi : -two_pi) / static_cast<double>(len);
    const cplx w_len = phasor(angle);
    cplx w{1.0, 0.0};
    for (std::size_t k = 0; k < len / 2; ++k) {
      twiddles_.push_back(w);
      w *= w_len;
    }
  }
}

void fft_plan::execute(std::span<cplx> data) const {
  if (data.size() != n_)
    throw std::invalid_argument("fft_plan::execute: size mismatch");
  for (std::size_t p = 0; p + 1 < swap_pairs_.size(); p += 2) {
    std::swap(data[swap_pairs_[p]], data[swap_pairs_[p + 1]]);
  }
  std::size_t stage = 0;
  for (std::size_t len = 2; len <= n_; len <<= 1, ++stage) {
    const std::size_t half = len / 2;
    const cplx* w = twiddles_.data() + offsets_[stage];
    for (std::size_t start = 0; start < n_; start += len) {
      cplx* a = data.data() + start;
      cplx* b = a + half;
      for (std::size_t k = 0; k < half; ++k) {
        // Explicit real arithmetic: identical value sequence to a
        // std::complex butterfly for finite inputs, but lets the compiler
        // keep everything in registers.
        const double are = a[k].real(), aim = a[k].imag();
        const double bre = b[k].real(), bim = b[k].imag();
        const double wre = w[k].real(), wim = w[k].imag();
        const double ore = bre * wre - bim * wim;
        const double oim = bre * wim + bim * wre;
        a[k] = {are + ore, aim + oim};
        b[k] = {are - ore, aim - oim};
      }
    }
  }
}

namespace {

// Plan cache indexed by (direction, log2 n). Slots are filled once under a
// mutex and published with a release store; steady-state lookups are a
// single acquire load. Plans are never destroyed, so references handed out
// stay valid for the life of the process.
constexpr std::size_t kMaxLog2 = 32;
std::atomic<const fft_plan*> g_plan_cache[2][kMaxLog2 + 1];
std::mutex g_plan_mutex;

}  // namespace

const fft_plan& get_fft_plan(std::size_t n, fft_direction direction) {
  // Checked before the slot lookup: a non-power-of-two size would otherwise
  // share a slot (by its trailing zeros) with a smaller plan.
  if (!is_power_of_two(n))
    throw std::invalid_argument("get_fft_plan: size must be a power of two");
  const auto log2n = static_cast<std::size_t>(std::countr_zero(n));
  if (log2n > kMaxLog2)
    throw std::invalid_argument("get_fft_plan: size too large");
  auto& slot = g_plan_cache[direction == fft_direction::inverse ? 1 : 0][log2n];
  if (const fft_plan* plan = slot.load(std::memory_order_acquire)) {
    return *plan;
  }
  std::lock_guard<std::mutex> lock(g_plan_mutex);
  if (const fft_plan* plan = slot.load(std::memory_order_acquire)) {
    return *plan;
  }
  auto plan = std::make_unique<fft_plan>(n, direction);
  const fft_plan* raw = plan.release();
  slot.store(raw, std::memory_order_release);
  return *raw;
}

}  // namespace backfi::dsp
