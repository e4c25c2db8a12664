// 802.11a/g PPDU transmitter: legacy preamble + SIGNAL field + DATA field.
//
// This is the excitation signal of BackFi: the AP sends a normal WiFi
// packet to a client, and the tag backscatters a phase-modulated copy.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsp/types.h"
#include "phy/bits.h"
#include "wifi/rates.h"

namespace backfi::wifi {

/// Transmit-side configuration.
struct tx_config {
  wifi_rate rate = wifi_rate::mbps24;
  /// Initial scrambler state (nonzero, 7 bits). The simulator's receiver
  /// is configured with the same seed (we do not model the per-frame seed
  /// handshake of the standard's SERVICE field).
  std::uint8_t scrambler_seed = 0x5D;
};

/// A fully assembled PPDU.
struct tx_ppdu {
  cvec samples;                ///< preamble + SIGNAL + data, unit mean power
  wifi_rate rate;              ///< data-field rate
  std::size_t psdu_bytes = 0;  ///< payload length
  std::size_t n_data_symbols = 0;
  std::size_t data_start = 0;  ///< sample index of the first data symbol
  std::vector<std::uint8_t> payload;  ///< the PSDU itself (for verification)
};

/// The payload-independent tables of one DATA field shape (rate, PSDU
/// length, scrambler seed), so that each PPDU of that shape redoes only the
/// work that depends on its payload bytes.
struct data_plan {
  wifi_rate rate{};
  std::size_t psdu_bytes = 0;
  std::size_t n_data_symbols = 0;
  std::size_t n_info = 0;  ///< SERVICE + PSDU + pad bits (tail excluded)
  /// Scrambler keystream over the n_info bits, packed LSB-first.
  std::vector<std::uint8_t> keystream;
  /// For interleaved coded bit j of a symbol (subcarrier j / n_bpsc, label
  /// bit j % n_bpsc, MSB first): the mother-code bit offset within that
  /// symbol's 2 * n_dbps mother bits it comes from — puncturing and the
  /// interleaver permutation folded into one gather table.
  std::vector<std::uint16_t> label_source;
  /// Mapper LUT: constellation point by bit label.
  std::vector<cplx> point_by_label;
};

/// Build the plan for `psdu_bytes` (1..4095) at `rate`.
data_plan make_data_plan(wifi_rate rate, std::size_t psdu_bytes,
                         std::uint8_t scrambler_seed = 0x5D);

/// Modulate the DATA field of `psdu` (exactly plan.psdu_bytes bytes) into
/// `out` (exactly plan.n_data_symbols * symbol_samples samples): scramble,
/// encode, puncture, interleave and map on packed bits, then one OFDM
/// symbol at a time straight into `out`. transmit() builds its DATA field
/// the same way. Returns the number of symbols written.
///
/// With `symbols` — [begin, end) ranges of DATA-symbol indices, in any
/// order, overlaps allowed, clamped to plan.n_data_symbols — only the
/// symbols inside them are unpacked, mapped and transformed; the rest of
/// `out` is not touched. The scramble and the encode still run over the
/// whole PSDU (the encoder is sequential), so every symbol written is
/// bit-identical to the full build. Without `symbols`, every symbol.
std::size_t modulate_data(const data_plan& plan,
                          std::span<const std::uint8_t> psdu,
                          std::span<cplx> out,
                          std::span<const dsp::sample_range> symbols);
std::size_t modulate_data(const data_plan& plan,
                          std::span<const std::uint8_t> psdu,
                          std::span<cplx> out);

/// Build the 18 SIGNAL-field information bits (RATE, reserved, LENGTH,
/// parity) for a given rate and PSDU length.
phy::bitvec signal_info_bits(wifi_rate rate, std::size_t length_bytes);

/// Encode and modulate the SIGNAL field into one 80-sample OFDM symbol.
cvec signal_symbol(wifi_rate rate, std::size_t length_bytes);

/// Assemble a complete PPDU carrying `psdu` at the configured rate.
/// Maximum PSDU length 4095 bytes (12-bit LENGTH field).
tx_ppdu transmit(std::span<const std::uint8_t> psdu, const tx_config& config = {});

/// Duration of a PPDU carrying `length_bytes` at `rate`, in samples.
std::size_t ppdu_length_samples(std::size_t length_bytes, wifi_rate rate);

/// Convenience: PPDU around a random payload of `length_bytes` (for
/// excitation-signal generation in benches and tests).
tx_ppdu random_ppdu(std::size_t length_bytes, const tx_config& config,
                    std::uint64_t seed);

}  // namespace backfi::wifi
