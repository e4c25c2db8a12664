// The BackFi AP's transmit waveform (paper Fig. 4): after the CTS-to-SELF
// (pure airtime, modeled in mac/), the AP sends 16 us of on/off pulses
// encoding the target tag's pseudo-random wake preamble, then the normal
// WiFi PPDU destined for a WiFi client. The tag's schedule (silent,
// estimation preamble, sync, payload) runs over the PPDU.
#pragma once

#include <cstdint>
#include <span>

#include "dsp/types.h"
#include "dsp/workspace.h"
#include "phy/bits.h"
#include "wifi/ppdu.h"

namespace backfi::reader {

struct excitation_config {
  std::uint32_t tag_id = 1;
  std::size_t wake_bits = 16;           ///< wake preamble length (1 us/bit)
  std::size_t ppdu_bytes = 1500;        ///< client payload size
  wifi::wifi_rate rate = wifi::wifi_rate::mbps24;  ///< paper uses 24 Mbps
  std::uint64_t payload_seed = 1;       ///< PRNG seed for the client payload
  /// Number of back-to-back PPDUs in the excitation burst (the paper's AP
  /// "transmits 1 to 4 ms long packet"; low tag symbol rates need several).
  std::size_t n_ppdus = 1;
};

/// The assembled excitation waveform.
struct excitation {
  /// Wake pulses followed by n_ppdus PPDUs. After a ranged build
  /// (modulate_excitation_into) only the wake pulses, every PPDU's legacy
  /// preamble + SIGNAL symbol and the DATA symbols overlapping the ranges
  /// are written; the other DATA samples keep stale contents.
  cvec samples;
  std::size_t ppdu_start = 0;
  std::size_t wake_end = 0; ///< nominal tag time origin
  /// PPDU 0's rate, length, layout and payload. Its samples are not
  /// duplicated: ppdu.samples stays empty, and the PPDU occupies
  /// samples[ppdu_start, ppdu_start + ppdu_length_samples(...)).
  wifi::tx_ppdu ppdu;
  phy::bitvec wake_preamble;
};

/// Build the excitation for one backscatter opportunity. A process-wide
/// table, keyed on (tag_id, wake_bits, rate, ppdu_bytes), holds everything
/// that does not depend on the payload: the wake pulses, the WiFi legacy
/// preamble + SIGNAL symbol and the DATA-field plan (wifi::data_plan). Each
/// call therefore redoes only the payload draw and the payload-dependent
/// scramble/encode/interleave/map/IFFT work.
excitation build_excitation(const excitation_config& config);

/// As build_excitation(), recycling the caller's excitation buffers across
/// calls (one per worker thread). Every field of `out` is overwritten;
/// bit-identical output. Equivalent to prepare_excitation_into() followed
/// by modulate_excitation_into() over [0, excitation_length(config)).
void build_excitation_into(const excitation_config& config, excitation& out,
                           dsp::workspace_stats* stats = nullptr);

/// First half of a build: size `out`, set its layout fields and wake
/// preamble, and write every sample that does not depend on the payload —
/// the wake pulses and each PPDU's legacy preamble + SIGNAL symbol. The
/// payload and the DATA symbols are left to modulate_excitation_into().
void prepare_excitation_into(const excitation_config& config, excitation& out,
                             dsp::workspace_stats* stats = nullptr);

/// Second half, on an `out` prepared for the same config: draw each PPDU's
/// payload (PPDU i from rng(payload_seed + i)), scramble and encode it
/// whole, and modulate only its DATA symbols that overlap `ranges`
/// (excitation sample indices, in any order). Every sample written is
/// bit-identical to a full build; DATA samples outside the ranges keep
/// stale contents. PPDU 0's payload is always drawn, so out.ppdu.payload
/// is complete; a later PPDU no range touches skips its draw (each PPDU
/// has its own generator, so no other draw moves). Returns the number of
/// DATA symbols modulated.
std::size_t modulate_excitation_into(const excitation_config& config,
                                     std::span<const dsp::sample_range> ranges,
                                     excitation& out);

/// Duration [samples] of an excitation with the given parameters.
std::size_t excitation_length(const excitation_config& config);

/// Retired replay-cache counters: always zero. Kept only for the
/// benchmark driver's counter snapshot, which still reads them.
struct excitation_cache_stats_snapshot {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};
inline excitation_cache_stats_snapshot excitation_cache_stats() { return {}; }

}  // namespace backfi::reader
