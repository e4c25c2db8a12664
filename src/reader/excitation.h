// The BackFi AP's transmit waveform (paper Fig. 4): after the CTS-to-SELF
// (pure airtime, modeled in mac/), the AP sends 16 us of on/off pulses
// encoding the target tag's pseudo-random wake preamble, then the normal
// WiFi PPDU destined for a WiFi client. The tag's schedule (silent,
// estimation preamble, sync, payload) runs over the PPDU.
#pragma once

#include <cstdint>

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
  cvec samples;             ///< wake pulses followed by the PPDU
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
/// bit-identical output.
void build_excitation_into(const excitation_config& config, excitation& out,
                           dsp::workspace_stats* stats = nullptr);

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
