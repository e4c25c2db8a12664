#include "phy/viterbi_kernels.h"

#include <array>
#include <limits>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace backfi::phy::detail {

namespace {

// Mirror of convolutional.cpp's trellis constants and parity recipe; the
// ConvolutionalTest / ViterbiKernelTest references pin the two against each
// other.
constexpr std::uint32_t kG0 = 0b1011011;  // 133 octal
constexpr std::uint32_t kG1 = 0b1111001;  // 171 octal
constexpr int kMemory = 6;
constexpr int kStates = 1 << kMemory;

constexpr int parity(std::uint32_t v) {
  v ^= v >> 16;
  v ^= v >> 8;
  v ^= v >> 4;
  v ^= v >> 2;
  v ^= v >> 1;
  return static_cast<int>(v & 1u);
}

// Branch-sum index for predecessor state p taken with input bit b: the two
// coded bits packed as k = out0 << 1 | out1, selecting
// bm[k] = (out0 ? -s0 : s0) + (out1 ? -s1 : s1).
constexpr int bm_index(int p, int b) {
  const std::uint32_t reg = (static_cast<std::uint32_t>(b) << kMemory) |
                            static_cast<std::uint32_t>(p);
  return (parity(reg & kG0) << 1) | parity(reg & kG1);
}

// States are processed four at a time: group g covers next states
// 4g..4g+3, whose input bit is b = (4g) >> 5 and whose predecessor pairs
// are the eight contiguous metrics 8(g&7)..8(g&7)+7 (even lanes = first
// predecessor, odd = second). Groups g and g + 8 (next states j and j + 32)
// share those predecessors. Within every group the branch index of the
// even (odd) predecessors alternates between k and k ^ 2 across the lanes,
// so four vectors [bm[k], bm[k^2], bm[k], bm[k^2]] serve all 32
// butterflies; `even[g]` / `odd[g]` name each group's two. make_groups()
// checks the alternation at compile time.
struct group_branches {
  int even[16];
  int odd[16];
  bool alternates;
};

constexpr group_branches make_groups() {
  group_branches t{};
  t.alternates = true;
  for (int g = 0; g < 16; ++g) {
    for (int lane = 0; lane < 4; ++lane) {
      const int ns = 4 * g + lane;
      const int b = ns >> (kMemory - 1);
      const int p0 = (ns & (kStates / 2 - 1)) * 2;
      if (lane == 0) {
        t.even[g] = bm_index(p0, b);
        t.odd[g] = bm_index(p0 + 1, b);
      }
      const int flip = (lane & 1) ? 2 : 0;
      if (bm_index(p0, b) != (t.even[g] ^ flip) ||
          bm_index(p0 + 1, b) != (t.odd[g] ^ flip))
        t.alternates = false;
    }
  }
  return t;
}

constexpr group_branches kGroups = make_groups();
static_assert(kGroups.alternates,
              "K=7 133/171 trellis: branch indices alternate k, k^2 per lane");

}  // namespace

std::uint64_t viterbi_acs_step(const double* metric, double s0, double s1,
                               int max_input, double* next_metric) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
#if defined(__AVX2__)
  // branch[k] = [bm[k], bm[k^2], bm[k], bm[k^2]]: per lane an exact +-1
  // multiply of each soft input and one rounded add, the same operations
  // as the scalar bm[] table below.
  const __m256d s0v = _mm256_set1_pd(s0);
  const __m256d s1v = _mm256_set1_pd(s1);
  __m256d branch[4];
  for (int k = 0; k < 4; ++k) {
    const double g0 = (k & 2) ? -1.0 : 1.0;
    const double g1 = (k & 1) ? -1.0 : 1.0;
    branch[k] =
        _mm256_add_pd(_mm256_mul_pd(_mm256_setr_pd(g0, -g0, g0, -g0), s0v),
                      _mm256_mul_pd(_mm256_set1_pd(g1), s1v));
  }
  // Group g's four add-compare-selects; returns their 4 decision bits.
  const auto butterfly = [&](int g, __m256d even, __m256d odd) {
    const __m256d c0 = _mm256_add_pd(even, branch[kGroups.even[g]]);
    const __m256d c1 = _mm256_add_pd(odd, branch[kGroups.odd[g]]);
    // Ordered strict greater-than: picks the odd predecessor only on strict
    // improvement (ties and unordered NaN compares keep the even one),
    // matching the scalar `c1 > c0`. _mm256_max_pd(c1, c0) is exactly
    // (c1 > c0) ? c1 : c0, so it stores the same survivor metric as a
    // blend on `gt` without waiting for the compare.
    const __m256d gt = _mm256_cmp_pd(c1, c0, _CMP_GT_OQ);
    _mm256_storeu_pd(next_metric + 4 * g, _mm256_max_pd(c1, c0));
    return static_cast<std::uint64_t>(_mm256_movemask_pd(gt));
  };
  std::uint64_t decisions = 0;
#pragma GCC unroll 8
  for (int g = 0; g < 8; ++g) {
    const __m256d a = _mm256_loadu_pd(metric + 8 * g);
    const __m256d b = _mm256_loadu_pd(metric + 8 * g + 4);
    // Deinterleave the eight predecessor metrics into even/odd lanes in
    // ascending state order, once for both butterflies that read them.
    const __m256d even =
        _mm256_permute4x64_pd(_mm256_unpacklo_pd(a, b), 0b11011000);
    const __m256d odd =
        _mm256_permute4x64_pd(_mm256_unpackhi_pd(a, b), 0b11011000);
    decisions |= butterfly(g, even, odd) << (4 * g);
    if (max_input == 2)
      decisions |= butterfly(g + 8, even, odd) << (4 * g + kStates / 2);
  }
  if (max_input != 2) {
    const __m256d ninf = _mm256_set1_pd(kNegInf);
    for (int ns = kStates / 2; ns < kStates; ns += 4)
      _mm256_storeu_pd(next_metric + ns, ninf);
  }
  return decisions;
#else
  static constexpr auto kIndex = [] {
    std::array<std::array<std::uint8_t, 2>, kStates> t{};
    for (int p = 0; p < kStates; ++p)
      for (int b = 0; b < 2; ++b)
        t[p][b] = static_cast<std::uint8_t>(bm_index(p, b));
    return t;
  }();
  // bm[o0 << 1 | o1] = (o0 ? -s0 : s0) + (o1 ? -s1 : s1), same FP ops and
  // order as computing each branch individually.
  const double bm[4] = {s0 + s1, s0 + (-s1), (-s0) + s1, (-s0) + (-s1)};
  std::uint64_t decisions = 0;
  for (int ns = 0; ns < kStates; ++ns) {
    const int b = ns >> (kMemory - 1);
    if (b >= max_input) {
      next_metric[ns] = kNegInf;
      continue;
    }
    const int p0 = (ns & (kStates / 2 - 1)) * 2;
    const double c0 = metric[p0] + bm[kIndex[p0][b]];
    const double c1 = metric[p0 + 1] + bm[kIndex[p0 + 1][b]];
    const bool take1 = c1 > c0;
    next_metric[ns] = take1 ? c1 : c0;
    decisions |= static_cast<std::uint64_t>(take1) << ns;
  }
  return decisions;
#endif
}

}  // namespace backfi::phy::detail
