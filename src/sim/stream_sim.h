// Multi-packet streaming scenario: one continuous capture of many
// backscatter exchanges with time-varying channels, decoded through
// reader::stream_session (the always-on-AP counterpart of the one-shot
// run_backscatter_trial).
//
// Capture model: the reader transmits `n_packets` back-to-back excitations
// separated by `gap_us` of dead air; the tag answers each one. Between
// packets the forward channel h_f drifts along the AR(1) process of
// channel/drift.h and the reader/tag LO offset walks by
// impair::lo_drift_config — so every packet sees a slightly different
// combined channel, which the decoder's per-packet estimation absorbs
// (that is the point of re-estimating every packet).
//
// Seeded synthesis contract (pinned by tests/sim/stream_test.cpp): all
// randomness comes from one dsp::rng(seed) consumed in packet order. After
// the initial draw_backscatter_channels, packet k consumes, in order:
//   1. one next_u64() for the WiFi payload seed,
//   2. the forward-drift innovation (one draw_multipath realization when
//      enabled and k > 0, zero draws otherwise — channel/drift.h contract),
//   3. one gaussian() for the LO phase step (when enabled),
//   4. one uniform_int() wake-jitter draw (when the tag woke and
//      tag_jitter_samples > 0),
//   5. the payload bits,
//   6. the AWGN over the packet-plus-gap chunk: one next_u64() that keys
//      the counter-based noise generator (channel/awgn.h), whatever the
//      chunk length.
// The capture therefore depends only on (config, seed) — never on how the
// stream is later chunked or decoded — and the decoded bit-stream is
// bit-identical at 1 and 2 threads and to the per-packet batch reference
// on static channels.
#pragma once

#include <cstddef>
#include <vector>

#include "channel/drift.h"
#include "impair/rf_impairments.h"
#include "reader/stream_session.h"
#include "sim/backscatter_sim.h"

namespace backfi::sim {

struct stream_scenario_config {
  /// Per-packet link scenario (budget, tag, excitation, decoder, chain,
  /// distance, payload size, seed, collector). Impairment-plan faults are
  /// not injected on the streaming capture; drift is the streaming-path
  /// impairment.
  scenario_config scenario;
  std::size_t n_packets = 32;
  /// Dead air between consecutive excitations [us] (noise only).
  std::size_t gap_us = 8;
  /// Inter-packet forward-channel AR(1) drift (disabled by default).
  channel::drift_config forward_drift;
  /// Inter-packet LO phase random walk (disabled by default).
  impair::lo_drift_config lo_drift;
  /// stream_session topology (see reader/stream_session.h).
  std::size_t threads = 1;
  std::size_t queue_capacity = 8;
  reader::stream_overflow overflow = reader::stream_overflow::block;
  /// Samples per feed() call; 0 feeds the whole capture at once. Decoded
  /// output is invariant to this by the streaming contract.
  std::size_t feed_chunk_samples = 0;

  /// First violated constraint, or config_error::none when usable.
  config_error validate() const;
};

/// Throw std::invalid_argument naming `where` and the violated constraint.
void validate_or_throw(const stream_scenario_config& config, const char* where);

/// A synthesized continuous capture plus its ground truth.
struct stream_capture {
  cvec x;  ///< reader transmit timeline
  cvec y;  ///< receive capture (same length)
  std::vector<reader::stream_packet> schedule;
  std::vector<phy::bitvec> payloads;  ///< ground-truth tag payload per packet
  std::vector<std::uint8_t> woke;     ///< tag wake success per packet
  /// Forward-channel taps after the last packet's evolution step (equals
  /// the initial realization when drift is disabled) — for drift tests.
  cvec final_h_f;
  /// Accumulated LO phase after the last packet [rad].
  double final_lo_phase_rad = 0.0;
};

/// Synthesize the capture for `config` (see the contract above).
stream_capture build_stream_capture(const stream_scenario_config& config);

/// Per-packet decode outcome, in schedule order.
struct stream_packet_outcome {
  bool woke = false;
  bool dropped = false;
  bool sync_found = false;
  bool decoded = false;
  bool crc_ok = false;
  std::size_t bit_errors = 0;  ///< vs ground truth, when decoded
  phy::bitvec payload;         ///< decoded payload bits, when decoded
};

struct stream_trial_result {
  std::vector<stream_packet_outcome> packets;
  std::size_t packets_decoded = 0;
  std::size_t packets_dropped = 0;
  std::size_t crc_ok = 0;
  std::size_t bit_errors_total = 0;
  reader::stream_stats stats;  ///< session accounting (streaming path only)
};

/// Build the capture and decode it through a reader::stream_session with
/// the configured topology, feeding in `feed_chunk_samples` chunks.
/// scenario.collector (nullable) receives the chain/decoder probes plus
/// the session's reader.stream.* / runtime.stream.* metrics.
stream_trial_result run_stream_trial(const stream_scenario_config& config);

/// Reference decode of the same capture through direct per-packet
/// run_receive_chain + backfi_decoder::decode calls (the pre-streaming
/// batch path). On any capture — static or drifting — the streaming
/// path's decoded bit-stream is bit-identical to this (stats carries
/// counts only).
stream_trial_result run_stream_batch_reference(
    const stream_scenario_config& config);

}  // namespace backfi::sim
