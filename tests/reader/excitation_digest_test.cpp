// Byte-exact guard on the excitation waveform. Each case hashes every
// sample's IEEE-754 bit pattern (FNV-1a over the real and imaginary words
// in order), so any change to the synthesis arithmetic — scrambling,
// coding, interleaving, mapping, IFFT scaling, cyclic prefix, burst
// layout — moves the digest, while a restructured pipeline that emits the
// same bytes leaves every pin intact.
#include "reader/excitation.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

namespace backfi::reader {
namespace {

std::uint64_t sample_digest(const cvec& samples) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](double v) {
    std::uint64_t w = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 8; ++b) {
      h ^= w & 0xffu;
      h *= 0x100000001b3ULL;
      w >>= 8;
    }
  };
  for (const cplx& s : samples) {
    mix(s.real());
    mix(s.imag());
  }
  return h;
}

struct digest_case {
  wifi::wifi_rate rate;
  std::size_t ppdu_bytes;
  std::size_t n_ppdus;
  std::uint64_t payload_seed;
  std::uint64_t digest;
};

constexpr wifi::wifi_rate r6 = wifi::wifi_rate::mbps6;
constexpr wifi::wifi_rate r9 = wifi::wifi_rate::mbps9;
constexpr wifi::wifi_rate r24 = wifi::wifi_rate::mbps24;
constexpr wifi::wifi_rate r48 = wifi::wifi_rate::mbps48;
constexpr wifi::wifi_rate r54 = wifi::wifi_rate::mbps54;

// Rates 6/24/54 Mbps x ppdu_bytes 1/1500/4000 x n_ppdus 1/4 x two payload
// seeds, then 9 Mbps (36 data bits per symbol, not byte aligned) and
// 48 Mbps (the only rate-2/3 puncturing) at 1500 B. Tag 7, default 16-bit
// wake preamble.
constexpr digest_case kCases[] = {
    {r6, 1, 1, 1, 0x3f1e7e1306d6f945ULL},
    {r6, 1, 1, 0x5eed0042, 0xa4dac28c50cca814ULL},
    {r6, 1, 4, 1, 0xa5fc51b3ed2389a8ULL},
    {r6, 1, 4, 0x5eed0042, 0x5aed1aabe6d1380cULL},
    {r6, 1500, 1, 1, 0xe8afbe7fcf8aea0dULL},
    {r6, 1500, 1, 0x5eed0042, 0x3a2002a520f6642eULL},
    {r6, 1500, 4, 1, 0xba26463a7a77e80cULL},
    {r6, 1500, 4, 0x5eed0042, 0xaf799fed230b98bdULL},
    {r6, 4000, 1, 1, 0x3964724ad94f7388ULL},
    {r6, 4000, 1, 0x5eed0042, 0x0a4a2defaab316ceULL},
    {r6, 4000, 4, 1, 0xa693dd3a804d468cULL},
    {r6, 4000, 4, 0x5eed0042, 0x106caf6f3784e28eULL},
    {r24, 1, 1, 1, 0x92ea6e8270957e01ULL},
    {r24, 1, 1, 0x5eed0042, 0xa112ff38aa79eb94ULL},
    {r24, 1, 4, 1, 0x227f4b625623ec4aULL},
    {r24, 1, 4, 0x5eed0042, 0x239543ce1f56816dULL},
    {r24, 1500, 1, 1, 0x895935eb27b93bd6ULL},
    {r24, 1500, 1, 0x5eed0042, 0x1ea392311430c0ebULL},
    {r24, 1500, 4, 1, 0x7f94a4ce720b4e3fULL},
    {r24, 1500, 4, 0x5eed0042, 0xb1193d186bb06abcULL},
    {r24, 4000, 1, 1, 0x8be3279246ba56b1ULL},
    {r24, 4000, 1, 0x5eed0042, 0x6c040f625a67c60eULL},
    {r24, 4000, 4, 1, 0xad0d3bc36d1b9616ULL},
    {r24, 4000, 4, 0x5eed0042, 0xe13e33309d6e7d96ULL},
    {r54, 1, 1, 1, 0xe5ae0ee4c55c2d1bULL},
    {r54, 1, 1, 0x5eed0042, 0x368d0c29a86b051eULL},
    {r54, 1, 4, 1, 0x01273a5d0fecc8e0ULL},
    {r54, 1, 4, 0x5eed0042, 0x5979eac440922702ULL},
    {r54, 1500, 1, 1, 0xd1756752a70263f4ULL},
    {r54, 1500, 1, 0x5eed0042, 0xc1908ff4b13c0379ULL},
    {r54, 1500, 4, 1, 0x6a5a981e00e8ddf4ULL},
    {r54, 1500, 4, 0x5eed0042, 0x7d02bcfb724d2993ULL},
    {r54, 4000, 1, 1, 0xefa4e6d318eff417ULL},
    {r54, 4000, 1, 0x5eed0042, 0x3960ed793b844cccULL},
    {r54, 4000, 4, 1, 0xb25c256cb7480307ULL},
    {r54, 4000, 4, 0x5eed0042, 0x7fd16ce5dcc2cbc6ULL},
    {r9, 1500, 1, 1, 0x1ddfb7ea28a2ca9bULL},
    {r48, 1500, 1, 1, 0xb213dbdb32871306ULL},
};

TEST(ExcitationDigestTest, SamplesMatchPinnedDigests) {
  for (const digest_case& c : kCases) {
    excitation_config cfg;
    cfg.tag_id = 7;
    cfg.rate = c.rate;
    cfg.ppdu_bytes = c.ppdu_bytes;
    cfg.n_ppdus = c.n_ppdus;
    cfg.payload_seed = c.payload_seed;
    const excitation ex = build_excitation(cfg);
    ASSERT_EQ(ex.samples.size(), excitation_length(cfg));
    EXPECT_EQ(sample_digest(ex.samples), c.digest)
        << "rate " << static_cast<int>(c.rate) << " bytes " << c.ppdu_bytes
        << " n_ppdus " << c.n_ppdus << " seed " << c.payload_seed;
  }
}

}  // namespace
}  // namespace backfi::reader
