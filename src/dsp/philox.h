// Counter-based Gaussian synthesis: Philox4x32-10 (Salmon et al.,
// "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11) followed by a
// Box-Muller transform.
//
// Every value is a pure function of (key, index): normal n of key k comes
// from Philox block n / 2 — counter {lo32(n / 2), hi32(n / 2), 0, 0}, key
// {lo32(k), hi32(k)} — whose first 64-bit output word gives the radius
// uniform and whose second gives the angle uniform; even n takes the
// cosine branch, odd n the sine branch. So a buffer can be filled in any
// order, in any chunking, or from any offset, and the bulk noise stages
// take exactly one key (one dsp::rng::next_u64() draw) per call however
// many samples they synthesize.
//
// The transform uses its own log and sin/cos polynomials built only from
// IEEE basic operations (+, -, *, /, sqrt; no libm, no FMA, contraction
// off), so the AVX2 kernel in philox_kernels.cpp and a portable scalar
// build produce bit-identical output (pinned by tests/dsp/philox_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "dsp/types.h"

namespace backfi::dsp {

/// One Philox4x32-10 block: ten rounds of the Random123 reference
/// round function with the Weyl key schedule.
constexpr std::array<std::uint32_t, 4> philox4x32_10(
    std::array<std::uint32_t, 4> ctr, std::array<std::uint32_t, 2> key) {
  for (int round = 0; round < 10; ++round) {
    if (round > 0) {
      key[0] += 0x9E3779B9u;
      key[1] += 0xBB67AE85u;
    }
    const std::uint64_t p0 = std::uint64_t{0xD2511F53u} * ctr[0];
    const std::uint64_t p1 = std::uint64_t{0xCD9E8D57u} * ctr[2];
    ctr = {static_cast<std::uint32_t>(p1 >> 32) ^ ctr[1] ^ key[0],
           static_cast<std::uint32_t>(p1),
           static_cast<std::uint32_t>(p0 >> 32) ^ ctr[3] ^ key[1],
           static_cast<std::uint32_t>(p0)};
  }
  return ctr;
}

/// out[j] = standard normal number `first + j` of `key`.
void fill_normals(std::uint64_t key, std::uint64_t first,
                  std::span<double> out);

/// x[i] += amp * (g[2m] + j g[2m + 1]) / sqrt(2) with m = first + i and g
/// the normals of `key`: circularly-symmetric complex Gaussian noise of
/// power amp^2 per sample, a pure function of (key, absolute sample index).
void add_complex_normals(std::uint64_t key, std::uint64_t first,
                         std::span<cplx> x, double amp);

}  // namespace backfi::dsp
