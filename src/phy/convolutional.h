// Rate-1/2 K=7 convolutional code (generators 133/171 octal, the 802.11
// mother code) with 802.11 puncturing to 2/3 and 3/4, plus a soft-decision
// Viterbi decoder.
//
// The same code protects both the WiFi PPDU payload and the BackFi tag
// payload: the paper's tag uses "a rate 1/2 convolutional encoder with
// constraint length of 7" (Section 4.1) with rates 1/2 and 2/3 evaluated.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "phy/bits.h"

namespace backfi::phy {

enum class code_rate {
  half,           ///< 1/2 (unpunctured mother code)
  two_thirds,     ///< 2/3 (puncture pattern A1 B1 A2 -)
  three_quarters  ///< 3/4 (puncture pattern A1 B1 A2 - - B3)
};

/// Numeric value of the code rate.
double code_rate_value(code_rate rate);

/// Human-readable name, e.g. "1/2".
const char* code_rate_name(code_rate rate);

/// Number of zero tail bits appended by conv_encode to terminate the trellis.
inline constexpr std::size_t conv_tail_bits = 6;

/// Encode info bits at rate 1/2, appending a 6-bit zero tail. Output length
/// is 2 * (len(info) + 6).
bitvec conv_encode(std::span<const std::uint8_t> info);

/// Packed form of conv_encode: `n_info` info bits packed LSB-first in
/// `info` (bit t is info[t / 8] >> (t % 8) & 1; bits past n_info are
/// ignored), then the zero tail, encoded a byte at a time through a
/// (state, input byte) table. Mother bit m lands LSB-first in out[m / 64]
/// and equals conv_encode's output bit m for m < 2 * (n_info + 6); the
/// words past that point carry encoded zero padding. `out` must hold
/// conv_packed_words(n_info) words.
void conv_encode_packed(std::span<const std::uint8_t> info, std::size_t n_info,
                        std::span<std::uint64_t> out);

/// Output words conv_encode_packed() writes for `n_info` info bits.
std::size_t conv_packed_words(std::size_t n_info);

/// Puncture a rate-1/2 coded stream to the requested rate.
bitvec puncture(std::span<const std::uint8_t> coded, code_rate rate);

/// Keep/drop pattern of `rate` over the mother-code bit index (period in
/// mother bits; 1 = transmit, 0 = punctured).
std::span<const std::uint8_t> puncture_pattern(code_rate rate);

/// Expand a punctured soft stream back to `mother_length` mother-code
/// positions, inserting zero (erasure) metrics at punctured positions.
/// Soft convention: positive value means "bit 0 more likely" (LLR-like).
/// Throws if the punctured stream does not match mother_length.
std::vector<double> depuncture(std::span<const double> soft, code_rate rate,
                               std::size_t mother_length);

/// As depuncture, writing into a reusable caller buffer (resized to
/// `mother_length`; identical values, no per-call allocation once warm).
void depuncture_into(std::span<const double> soft, code_rate rate,
                     std::size_t mother_length, std::vector<double>& out);

/// Soft-decision Viterbi decode of a rate-1/2 stream (after depuncturing).
/// `soft` must contain 2 * (n_info + 6) metrics; returns the n_info decoded
/// information bits (tail stripped). The trellis is forced to end in the
/// zero state. When `final_metric` is non-null it receives the winning
/// path's accumulated metric at the terminal zero state (higher = better
/// match; scale is the sum of |soft| branch metrics) — the decoder
/// confidence probe of the observability layer.
bitvec viterbi_decode(std::span<const double> soft, std::size_t n_info,
                      double* final_metric = nullptr);

/// Convenience: hard-decision decode (bits -> +-1 metrics).
bitvec viterbi_decode_hard(std::span<const std::uint8_t> coded_bits,
                           std::size_t n_info);

/// Number of coded bits produced for n_info information bits at `rate`
/// (including the tail).
std::size_t coded_length(std::size_t n_info, code_rate rate);

}  // namespace backfi::phy
