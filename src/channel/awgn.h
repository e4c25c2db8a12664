// Additive white Gaussian noise at a configurable normalized power.
//
// Convention used throughout the simulator: a transmitted baseband signal
// with unit mean sample power represents `tx_power_dbm`; all channel gains
// and noise powers are normalized to that reference, so dynamic range
// between self-interference (~0 dB) and thermal noise (~-115 dB for a
// 20 dBm transmitter) is carried in the double-precision samples.
#pragma once

#include <cstdint>
#include <span>

#include "dsp/rng.h"
#include "dsp/types.h"

namespace backfi::channel {

/// Complex AWGN of total power `noise_power` (E|n|^2) added in place.
///
/// Stream-position contract (pinned by ChannelAwgnTest): when
/// `noise_power <= 0` (or `x` is empty) the call returns WITHOUT touching
/// `gen` — zero draws are consumed. Callers that need draw positions to be
/// independent of the noise power must not rely on add_awgn advancing the
/// stream. Otherwise the call consumes exactly one gen.next_u64(), whatever
/// `x.size()` is: that draw keys the counter-based generator of
/// dsp/philox.h, and sample i receives complex normal i of that key, so the
/// noise is a pure function of (key, sample index).
void add_awgn(std::span<cplx> x, double noise_power, dsp::rng& gen);

/// Noise power normalized to the transmit power reference: the receiver's
/// thermal floor (kTB * NF) divided by the transmit power.
double normalized_noise_power(double tx_power_dbm, double bandwidth_hz,
                              double noise_figure_db);

/// Retired replay-cache counters: always zero. Kept only for the
/// benchmark driver's counter snapshot, which still reads them.
struct noise_cache_stats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};
inline noise_cache_stats awgn_cache_stats() { return {}; }

}  // namespace backfi::channel
