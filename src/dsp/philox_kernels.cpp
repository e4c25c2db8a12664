// Philox4x32-10 + Box-Muller kernels — the per-TU optimized unit.
//
// Compiled with -O3 and contraction off, plus -mavx2 (never -mfma) when
// the host supports it; see src/dsp/CMakeLists.txt. The AVX2 path runs four
// Philox blocks per 256-bit register set (32-bit words in the low halves
// of the 64-bit lanes, so _mm256_mul_epu32 is the 32x32->64 multiply) and
// evaluates the transform on four radius and four angle uniforms at once.
// The scalar path performs the same operations in the same order, so both
// round identically.
//
// Uniforms: u1 = (k1 + 0.5) * 2^-52 with k1 the top 52 bits of the first
// output word (so 0 < u1 < 1, no rejection), and t = k2 * 2^-52 in turns
// with k2 the top 52 bits of the second. Both are exact.
//
// log(u1): fdlibm's e_log.c reduction (u1 = 2^e * m, m in [sqrt(2)/2,
// sqrt(2)), f = m - 1, s = f / (2 + f)) with its degree-14 polynomial in s.
// sin/cos(2*pi*t): exact quadrant reduction in turns (q = trunc(4t + 1/2),
// f = t - q/4 in [-1/8, 1/8]), then fdlibm's k_sin.c / k_cos.c kernels on
// x = 2*pi*f and a quadrant rotation by sign flips and swaps.
#include "dsp/philox.h"

#include <algorithm>
#include <bit>
#include <cmath>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace backfi::dsp {

namespace {

constexpr std::uint32_t kMul0 = 0xD2511F53u;
constexpr std::uint32_t kMul1 = 0xCD9E8D57u;
constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;
constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;

constexpr double kTwoPow52 = 0x1p52;
constexpr double kTwoPowM52 = 0x1p-52;
constexpr std::uint64_t kTwoPow52Bits = 0x4330000000000000ULL;
constexpr std::uint64_t kMantissaMask = 0x000FFFFFFFFFFFFFULL;
constexpr std::uint64_t kOneBits = 0x3FF0000000000000ULL;
constexpr double kSqrt2 = 1.41421356237309514547;  // rounded sqrt(2)
constexpr double kInvSqrt2 = 0.7071067811865476;

// e_log.c
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kLg1 = 6.666666666666735130e-01;
constexpr double kLg2 = 3.999999999940941908e-01;
constexpr double kLg3 = 2.857142874366239149e-01;
constexpr double kLg4 = 2.222219843214978396e-01;
constexpr double kLg5 = 1.818357216161805012e-01;
constexpr double kLg6 = 1.531383769920937332e-01;
constexpr double kLg7 = 1.479819860511658591e-01;

// k_sin.c
constexpr double kS1 = -1.66666666666666324348e-01;
constexpr double kS2 = 8.33333333332248946124e-03;
constexpr double kS3 = -1.98412698298579493134e-04;
constexpr double kS4 = 2.75573137070700676789e-06;
constexpr double kS5 = -2.50507602534068634195e-08;
constexpr double kS6 = 1.58969099521155010221e-10;

// k_cos.c
constexpr double kC1 = 4.16666666666666019037e-02;
constexpr double kC2 = -1.38888888888741095749e-03;
constexpr double kC3 = 2.48015872894767294178e-05;
constexpr double kC4 = -2.75573143513906633035e-07;
constexpr double kC5 = 2.08757232129817482790e-09;
constexpr double kC6 = -1.13596475577881948265e-11;

/// Groups of four Philox blocks the main loops run in lockstep: enough
/// independent dependency chains to keep the vector ports busy.
constexpr int kGroups = 4;

/// The ten round keys of `key` (round 0 uses the key itself).
struct round_keys {
  std::uint32_t k0[10];
  std::uint32_t k1[10];
  explicit round_keys(std::uint64_t key) {
    std::uint32_t a = static_cast<std::uint32_t>(key);
    std::uint32_t b = static_cast<std::uint32_t>(key >> 32);
    for (int r = 0; r < 10; ++r) {
      k0[r] = a;
      k1[r] = b;
      a += kWeyl0;
      b += kWeyl1;
    }
  }
};

#if defined(__AVX2__)

/// Normals 2c .. 2c + 8G - 1 (blocks c .. c + 4G - 1) in index order:
/// group g's lo holds normals 2c + 8g .. 2c + 8g + 3, its hi the next four.
/// The G groups run in lockstep so their dependency chains interleave.
template <int G>
inline void normal_groups(const round_keys& keys, std::uint64_t c,
                          __m256d (&lo)[G], __m256d (&hi)[G]) {
  const __m256i mask32 = _mm256_set1_epi64x(0xFFFFFFFFLL);
  const __m256i mul0 = _mm256_set1_epi64x(kMul0);
  const __m256i mul1 = _mm256_set1_epi64x(kMul1);
  __m256i x0[G], x1[G], x2[G], x3[G];
  for (int g = 0; g < G; ++g) {
    const __m256i ctr = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<long long>(c + 4 * g)),
        _mm256_setr_epi64x(0, 1, 2, 3));
    x0[g] = _mm256_and_si256(ctr, mask32);
    x1[g] = _mm256_srli_epi64(ctr, 32);
    x2[g] = _mm256_setzero_si256();
    x3[g] = _mm256_setzero_si256();
  }
  for (int r = 0; r < 10; ++r) {
    const __m256i k0 = _mm256_set1_epi64x(keys.k0[r]);
    const __m256i k1 = _mm256_set1_epi64x(keys.k1[r]);
    for (int g = 0; g < G; ++g) {
      const __m256i p0 = _mm256_mul_epu32(x0[g], mul0);
      const __m256i p1 = _mm256_mul_epu32(x2[g], mul1);
      x0[g] = _mm256_xor_si256(
          _mm256_xor_si256(_mm256_srli_epi64(p1, 32), x1[g]), k0);
      x1[g] = _mm256_and_si256(p1, mask32);
      x2[g] = _mm256_xor_si256(
          _mm256_xor_si256(_mm256_srli_epi64(p0, 32), x3[g]), k1);
      x3[g] = _mm256_and_si256(p0, mask32);
    }
  }

  const __m256i bias_bits = _mm256_set1_epi64x(kTwoPow52Bits);
  const __m256d bias = _mm256_set1_pd(kTwoPow52);
  const __m256d scale = _mm256_set1_pd(kTwoPowM52);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d sign = _mm256_set1_pd(-0.0);
  auto lin = [](double k, __m256d v, __m256d acc) {
    return _mm256_add_pd(_mm256_set1_pd(k), _mm256_mul_pd(v, acc));
  };
  // Top 52 bits of a word as an exact double, via the 2^52 bias.
  auto top52 = [&](__m256i w) {
    return _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(w, 12), bias_bits)),
        bias);
  };

  __m256d u1[G], t[G];
  for (int g = 0; g < G; ++g) {
    const __m256i w1 = _mm256_or_si256(x0[g], _mm256_slli_epi64(x1[g], 32));
    const __m256i w2 = _mm256_or_si256(x2[g], _mm256_slli_epi64(x3[g], 32));
    u1[g] = _mm256_mul_pd(_mm256_add_pd(top52(w1), half), scale);
    t[g] = _mm256_mul_pd(top52(w2), scale);
  }

  // radius = sqrt(-2 log(u1)).
  __m256d radius[G];
  for (int g = 0; g < G; ++g) {
    const __m256i bits = _mm256_castpd_si256(u1[g]);
    __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
        _mm256_and_si256(bits, _mm256_set1_epi64x(kMantissaMask)),
        _mm256_set1_epi64x(kOneBits)));
    const __m256d big = _mm256_cmp_pd(m, _mm256_set1_pd(kSqrt2), _CMP_GT_OQ);
    m = _mm256_blendv_pd(m, _mm256_mul_pd(m, half), big);
    __m256d dk = _mm256_sub_pd(
        _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(
                          _mm256_srli_epi64(bits, 52), bias_bits)),
                      bias),
        _mm256_set1_pd(1023.0));
    dk = _mm256_add_pd(dk, _mm256_and_pd(big, one));
    const __m256d f = _mm256_sub_pd(m, one);
    const __m256d hfsq = _mm256_mul_pd(_mm256_mul_pd(half, f), f);
    const __m256d s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
    const __m256d z = _mm256_mul_pd(s, s);
    const __m256d w = _mm256_mul_pd(z, z);
    const __m256d t1 = _mm256_mul_pd(
        w, lin(kLg2, w, lin(kLg4, w, _mm256_set1_pd(kLg6))));
    const __m256d t2 = _mm256_mul_pd(
        z, lin(kLg1, w, lin(kLg3, w, lin(kLg5, w, _mm256_set1_pd(kLg7)))));
    const __m256d rr = _mm256_add_pd(t2, t1);
    const __m256d inner = _mm256_add_pd(
        _mm256_mul_pd(s, _mm256_add_pd(hfsq, rr)),
        _mm256_mul_pd(dk, _mm256_set1_pd(kLn2Lo)));
    const __m256d lnu = _mm256_sub_pd(
        _mm256_mul_pd(dk, _mm256_set1_pd(kLn2Hi)),
        _mm256_sub_pd(_mm256_sub_pd(hfsq, inner), f));
    radius[g] = _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), lnu));
  }

  // sin/cos(2*pi*t), rotated by the quadrant q in {0, 1, 2, 3, 4} (4 == 0).
  for (int g = 0; g < G; ++g) {
    const __m256d q = _mm256_round_pd(
        _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(4.0), t[g]), half),
        _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256d x = _mm256_mul_pd(
        _mm256_sub_pd(t[g], _mm256_mul_pd(_mm256_set1_pd(0.25), q)),
        _mm256_set1_pd(two_pi));
    const __m256d xz = _mm256_mul_pd(x, x);
    const __m256d sr = lin(kS2, xz, lin(kS3, xz, lin(kS4, xz, lin(kS5, xz,
                            _mm256_set1_pd(kS6)))));
    const __m256d sn = _mm256_add_pd(
        x, _mm256_mul_pd(_mm256_mul_pd(xz, x), lin(kS1, xz, sr)));
    const __m256d cr = _mm256_mul_pd(
        xz, lin(kC1, xz, lin(kC2, xz, lin(kC3, xz, lin(kC4, xz, lin(kC5, xz,
                _mm256_set1_pd(kC6)))))));
    const __m256d hz = _mm256_mul_pd(half, xz);
    const __m256d cw = _mm256_sub_pd(one, hz);
    const __m256d cs = _mm256_add_pd(
        cw, _mm256_add_pd(_mm256_sub_pd(_mm256_sub_pd(one, cw), hz),
                          _mm256_mul_pd(xz, cr)));

    const __m256d q1 = _mm256_cmp_pd(q, one, _CMP_EQ_OQ);
    const __m256d q2 = _mm256_cmp_pd(q, _mm256_set1_pd(2.0), _CMP_EQ_OQ);
    const __m256d q3 = _mm256_cmp_pd(q, _mm256_set1_pd(3.0), _CMP_EQ_OQ);
    const __m256d swap = _mm256_or_pd(q1, q3);
    const __m256d cos_t = _mm256_xor_pd(
        _mm256_blendv_pd(cs, sn, swap), _mm256_and_pd(_mm256_or_pd(q1, q2), sign));
    const __m256d sin_t = _mm256_xor_pd(
        _mm256_blendv_pd(sn, cs, swap), _mm256_and_pd(_mm256_or_pd(q2, q3), sign));

    const __m256d g_cos = _mm256_mul_pd(radius[g], cos_t);
    const __m256d g_sin = _mm256_mul_pd(radius[g], sin_t);
    // [c0 s0 c2 s2] / [c1 s1 c3 s3] -> [c0 s0 c1 s1] / [c2 s2 c3 s3]
    const __m256d a = _mm256_unpacklo_pd(g_cos, g_sin);
    const __m256d b = _mm256_unpackhi_pd(g_cos, g_sin);
    lo[g] = _mm256_permute2f128_pd(a, b, 0x20);
    hi[g] = _mm256_permute2f128_pd(a, b, 0x31);
  }
}

/// Normals 2c .. 2c + 8G - 1 stored to out[0 .. 8G).
template <int G>
void normals_to(const round_keys& keys, std::uint64_t c, double* out) {
  __m256d lo[G], hi[G];
  normal_groups<G>(keys, c, lo, hi);
  for (int g = 0; g < G; ++g) {
    _mm256_storeu_pd(out + 8 * g, lo[g]);
    _mm256_storeu_pd(out + 8 * g + 4, hi[g]);
  }
}

#else  // portable scalar build: the same operations, one block at a time

double to_double(std::uint64_t v) { return std::bit_cast<double>(v); }
std::uint64_t to_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void normal_pair(const round_keys& keys, std::uint64_t c, double& g_cos,
                 double& g_sin) {
  const auto words = philox4x32_10(
      {static_cast<std::uint32_t>(c), static_cast<std::uint32_t>(c >> 32), 0u,
       0u},
      {keys.k0[0], keys.k1[0]});
  const std::uint64_t w1 = words[0] | (std::uint64_t{words[1]} << 32);
  const std::uint64_t w2 = words[2] | (std::uint64_t{words[3]} << 32);
  const double k1 = to_double((w1 >> 12) | kTwoPow52Bits) - kTwoPow52;
  const double k2 = to_double((w2 >> 12) | kTwoPow52Bits) - kTwoPow52;
  const double u1 = (k1 + 0.5) * kTwoPowM52;
  const double t = k2 * kTwoPowM52;

  const std::uint64_t bits = to_bits(u1);
  double m = to_double((bits & kMantissaMask) | kOneBits);
  double dk = (to_double((bits >> 52) | kTwoPow52Bits) - kTwoPow52) - 1023.0;
  if (m > kSqrt2) {
    m = m * 0.5;
    dk = dk + 1.0;
  }
  const double f = m - 1.0;
  const double hfsq = 0.5 * f * f;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double rr = t2 + t1;
  const double lnu =
      dk * kLn2Hi - ((hfsq - (s * (hfsq + rr) + dk * kLn2Lo)) - f);
  const double radius = std::sqrt(-2.0 * lnu);

  const double q = static_cast<double>(static_cast<int>(4.0 * t + 0.5));
  const double x = (t - 0.25 * q) * two_pi;
  const double xz = x * x;
  const double sr = kS2 + xz * (kS3 + xz * (kS4 + xz * (kS5 + xz * kS6)));
  const double sn = x + (xz * x) * (kS1 + xz * sr);
  const double cr =
      xz * (kC1 + xz * (kC2 + xz * (kC3 + xz * (kC4 + xz * (kC5 + xz * kC6)))));
  const double hz = 0.5 * xz;
  const double cw = 1.0 - hz;
  const double cs = cw + (((1.0 - cw) - hz) + xz * cr);
  const bool swap = q == 1.0 || q == 3.0;
  double cos_t = swap ? sn : cs;
  double sin_t = swap ? cs : sn;
  if (q == 1.0 || q == 2.0) cos_t = -cos_t;
  if (q == 2.0 || q == 3.0) sin_t = -sin_t;
  g_cos = radius * cos_t;
  g_sin = radius * sin_t;
}

template <int G>
void normals_to(const round_keys& keys, std::uint64_t c, double* out) {
  for (std::uint64_t b = 0; b < 4 * G; ++b)
    normal_pair(keys, c + b, out[2 * b], out[2 * b + 1]);
}

#endif

}  // namespace

void fill_normals(std::uint64_t key, std::uint64_t first,
                  std::span<double> out) {
  const round_keys keys(key);
  std::uint64_t n = first;
  std::size_t j = 0;
  while (j < out.size()) {
    const std::uint64_t skip = n & 1;
    if (skip == 0 && out.size() - j >= 8 * kGroups) {
      normals_to<kGroups>(keys, n >> 1, out.data() + j);
      j += 8 * kGroups;
      n += 8 * kGroups;
      continue;
    }
    double tmp[8];
    normals_to<1>(keys, n >> 1, tmp);
    const std::size_t take =
        std::min<std::size_t>(8 - skip, out.size() - j);
    std::copy_n(tmp + skip, take, out.data() + j);
    j += take;
    n += take;
  }
}

void add_complex_normals(std::uint64_t key, std::uint64_t first,
                         std::span<cplx> x, double amp) {
  const round_keys keys(key);
  const double s = amp * kInvSqrt2;
  // std::complex<double> is layout-compatible with double[2].
  double* flat = reinterpret_cast<double*>(x.data());
  const std::size_t n = x.size();
  std::size_t i = 0;
#if defined(__AVX2__)
  const __m256d sv = _mm256_set1_pd(s);
  for (; i + 4 * kGroups <= n; i += 4 * kGroups) {
    __m256d lo[kGroups], hi[kGroups];
    normal_groups<kGroups>(keys, first + i, lo, hi);
    double* p = flat + 2 * i;
    for (int g = 0; g < kGroups; ++g) {
      double* q = p + 8 * g;
      _mm256_storeu_pd(q, _mm256_add_pd(_mm256_loadu_pd(q), _mm256_mul_pd(sv, lo[g])));
      _mm256_storeu_pd(q + 4, _mm256_add_pd(_mm256_loadu_pd(q + 4),
                                            _mm256_mul_pd(sv, hi[g])));
    }
  }
#endif
  double tmp[8];
  for (; i < n; i += 4) {
    normals_to<1>(keys, first + i, tmp);
    const std::size_t m = std::min<std::size_t>(4, n - i);
    for (std::size_t k = 0; k < 2 * m; ++k) flat[2 * i + k] += s * tmp[k];
  }
}

}  // namespace backfi::dsp
