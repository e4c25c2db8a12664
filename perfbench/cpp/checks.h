// Output checks of the regime benchmark. Every operation's output is
// checked against an independent expectation, and each failed check is
// counted so that the run reports it (and exits non-zero):
//   - a trial fails when it throws, or when its CRC passed but the decoded
//     payload differs from the transmitted one;
//   - a stream pass must decode exactly what the batch reference decodes
//     on the first pass, and exactly what the first pass decoded on every
//     later pass; a CRC-ok packet must carry the transmitted payload;
//   - a sweep cell's chosen operating point and PER must be identical in
//     every pass over the same seeds;
//   - a run's CRC-ok share must reach its workload's decode-yield floor, so
//     a decoder that stops decoding (finds no sync, gives up before the
//     CRC) fails the run instead of just running faster.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "phy/bits.h"
#include "reader/stream_session.h"
#include "sim/backscatter_sim.h"
#include "sim/rate_adaptation.h"
#include "sim/stream_sim.h"

namespace perfbench {

/// False when the CRC accepted a payload with bit errors.
bool trial_output_ok(const backfi::sim::trial_result& result);

/// CRC-ok decodes missing for `attempted` operations to reach a yield of
/// `floor`: ceil(floor * attempted) - crc_ok, or 0 at or above the floor.
std::uint64_t decode_shortfall(std::uint64_t crc_ok, std::uint64_t attempted,
                               double floor);

/// What a decoded stream packet delivered.
struct packet_signature {
  bool sync_found = false;
  bool decoded = false;
  bool crc_ok = false;
  backfi::phy::bitvec payload;
  bool operator==(const packet_signature&) const = default;
};
std::vector<packet_signature> signatures_of(
    const std::vector<backfi::reader::stream_packet_result>& results);
std::vector<packet_signature> signatures_of(
    const backfi::sim::stream_trial_result& reference);

/// Packets whose CRC passed although the payload is not the transmitted
/// one (or the tag never answered).
std::size_t count_wrong_payloads(const std::vector<packet_signature>& got,
                                 const backfi::sim::stream_capture& capture);

/// What one sweep cell (find_max_goodput at one range and preamble) chose.
struct cell_outcome {
  bool found = false;
  backfi::tag::tag_modulation modulation{};
  backfi::phy::code_rate coding{};
  double symbol_rate_hz = 0.0;
  double per = 0.0;
  bool operator==(const cell_outcome&) const = default;
};
cell_outcome outcome_of(
    const std::optional<backfi::sim::link_evaluation>& best);

/// Positions at which `got` differs from `expected`, counting every
/// missing or extra entry as a mismatch.
template <typename T>
std::size_t count_mismatches(const std::vector<T>& expected,
                             const std::vector<T>& got) {
  const std::size_t common = std::min(expected.size(), got.size());
  std::size_t mismatches = std::max(expected.size(), got.size()) - common;
  for (std::size_t i = 0; i < common; ++i)
    if (!(expected[i] == got[i])) ++mismatches;
  return mismatches;
}

}  // namespace perfbench
