#include "phy/convolutional.h"

#include <array>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "phy/viterbi_kernels.h"

namespace backfi::phy {

namespace {

// Generators in binary, constraint length 7 (current bit + 6 memory bits).
constexpr std::uint32_t kG0 = 0b1011011;  // 133 octal
constexpr std::uint32_t kG1 = 0b1111001;  // 171 octal
constexpr int kMemory = 6;
constexpr int kStates = 1 << kMemory;

std::uint8_t parity(std::uint32_t v) {
  v ^= v >> 16;
  v ^= v >> 8;
  v ^= v >> 4;
  v ^= v >> 2;
  v ^= v >> 1;
  return static_cast<std::uint8_t>(v & 1u);
}

struct trellis_tables {
  // For each state s and input bit b: next state and the two output bits.
  std::array<std::array<std::uint8_t, 2>, kStates> next_state;
  std::array<std::array<std::uint8_t, 2>, kStates> out0;
  std::array<std::array<std::uint8_t, 2>, kStates> out1;
};

const trellis_tables& tables() {
  static const trellis_tables t = [] {
    trellis_tables tt{};
    for (int s = 0; s < kStates; ++s) {
      for (int b = 0; b < 2; ++b) {
        // Register = [input, memory bits]; state stores memory (newest in MSB).
        const std::uint32_t reg =
            (static_cast<std::uint32_t>(b) << kMemory) | static_cast<std::uint32_t>(s);
        tt.out0[s][b] = parity(reg & kG0);
        tt.out1[s][b] = parity(reg & kG1);
        tt.next_state[s][b] = static_cast<std::uint8_t>(reg >> 1);
      }
    }
    return tt;
  }();
  return t;
}

/// Byte-at-a-time encoder tables: from state s, the eight input bits of
/// byte v (LSB first) emit 16 mother bits (LSB first, out0 then out1 per
/// step) and leave the trellis in next[s][v].
struct byte_tables {
  std::array<std::array<std::uint16_t, 256>, kStates> bits;
  std::array<std::array<std::uint8_t, 256>, kStates> next;
};

const byte_tables& byte_table() {
  static const byte_tables bt = [] {
    const auto& t = tables();
    byte_tables b{};
    for (int s0 = 0; s0 < kStates; ++s0) {
      for (int v = 0; v < 256; ++v) {
        std::uint8_t state = static_cast<std::uint8_t>(s0);
        std::uint16_t out = 0;
        for (int k = 0; k < 8; ++k) {
          const int bit = (v >> k) & 1;
          out |= static_cast<std::uint16_t>(t.out0[state][bit] << (2 * k));
          out |= static_cast<std::uint16_t>(t.out1[state][bit] << (2 * k + 1));
          state = t.next_state[state][bit];
        }
        b.bits[s0][v] = out;
        b.next[s0][v] = state;
      }
    }
    return b;
  }();
  return bt;
}

}  // namespace

std::span<const std::uint8_t> puncture_pattern(code_rate rate) {
  static constexpr std::uint8_t kHalf[] = {1, 1};
  static constexpr std::uint8_t kTwoThirds[] = {1, 1, 1, 0};
  static constexpr std::uint8_t kThreeQuarters[] = {1, 1, 1, 0, 0, 1};
  switch (rate) {
    case code_rate::half: return {kHalf, 2};
    case code_rate::two_thirds: return {kTwoThirds, 4};
    case code_rate::three_quarters: return {kThreeQuarters, 6};
  }
  throw std::logic_error("unknown code rate");
}

double code_rate_value(code_rate rate) {
  switch (rate) {
    case code_rate::half: return 0.5;
    case code_rate::two_thirds: return 2.0 / 3.0;
    case code_rate::three_quarters: return 0.75;
  }
  throw std::logic_error("unknown code rate");
}

const char* code_rate_name(code_rate rate) {
  switch (rate) {
    case code_rate::half: return "1/2";
    case code_rate::two_thirds: return "2/3";
    case code_rate::three_quarters: return "3/4";
  }
  throw std::logic_error("unknown code rate");
}

bitvec conv_encode(std::span<const std::uint8_t> info) {
  const auto& t = tables();
  // Indexed writes into a presized buffer: per-bit push_back capacity checks
  // dominate the encoder on long PPDUs. Output values are unchanged.
  bitvec out(2 * (info.size() + conv_tail_bits));
  std::uint8_t state = 0;
  std::size_t w = 0;
  auto push = [&](std::uint8_t bit) {
    out[w] = t.out0[state][bit];
    out[w + 1] = t.out1[state][bit];
    w += 2;
    state = t.next_state[state][bit];
  };
  for (std::uint8_t bit : info) push(bit & 1u);
  for (std::size_t i = 0; i < conv_tail_bits; ++i) push(0);
  return out;
}

std::size_t conv_packed_words(std::size_t n_info) {
  const std::size_t steps = n_info + conv_tail_bits;
  return ((steps + 7) / 8 + 3) / 4;  // 16 mother bits per input byte
}

void conv_encode_packed(std::span<const std::uint8_t> info, std::size_t n_info,
                        std::span<std::uint64_t> out) {
  if (info.size() * 8 < n_info)
    throw std::invalid_argument("conv_encode_packed: info shorter than n_info");
  const std::size_t n_words = conv_packed_words(n_info);
  if (out.size() < n_words)
    throw std::invalid_argument("conv_encode_packed: output too short");
  const auto& bt = byte_table();
  const std::size_t full_bytes = n_info / 8;
  std::uint8_t state = 0;
  for (std::size_t w = 0; w < n_words; ++w) {
    std::uint64_t word = 0;
    for (std::size_t k = 0; k < 4; ++k) {
      const std::size_t i = 4 * w + k;
      std::uint8_t v = 0;
      if (i < full_bytes) {
        v = info[i];
      } else if (i == full_bytes && n_info % 8 != 0) {
        v = static_cast<std::uint8_t>(info[i] & ((1u << (n_info % 8)) - 1u));
      }
      word |= static_cast<std::uint64_t>(bt.bits[state][v]) << (16 * k);
      state = bt.next[state][v];
    }
    out[w] = word;
  }
}

bitvec puncture(std::span<const std::uint8_t> coded, code_rate rate) {
  // Rate 1/2 transmits every mother bit: a straight copy.
  if (rate == code_rate::half) return bitvec(coded.begin(), coded.end());

  const auto pattern = puncture_pattern(rate);
  const std::size_t period = pattern.size();
  std::size_t kept_per_period = 0;
  for (std::uint8_t keep : pattern) kept_per_period += keep;
  const std::size_t full = coded.size() / period;
  std::size_t total = full * kept_per_period;
  for (std::size_t k = full * period; k < coded.size(); ++k)
    total += pattern[k % period];

  bitvec out(total);
  std::size_t w = 0;
  std::size_t i = 0;
  for (; i + period <= coded.size(); i += period)
    for (std::size_t k = 0; k < period; ++k)
      if (pattern[k]) out[w++] = coded[i + k];
  for (std::size_t k = 0; i < coded.size(); ++i, ++k)
    if (pattern[k]) out[w++] = coded[i];
  return out;
}

std::vector<double> depuncture(std::span<const double> soft, code_rate rate,
                               std::size_t mother_length) {
  std::vector<double> out;
  depuncture_into(soft, rate, mother_length, out);
  return out;
}

void depuncture_into(std::span<const double> soft, code_rate rate,
                     std::size_t mother_length, std::vector<double>& out) {
  const auto pattern = puncture_pattern(rate);
  out.resize(mother_length);
  std::size_t consumed = 0;
  for (std::size_t i = 0; i < mother_length; ++i) {
    if (pattern[i % pattern.size()]) {
      if (consumed >= soft.size())
        throw std::invalid_argument("depuncture: soft stream too short");
      out[i] = soft[consumed++];
    } else {
      out[i] = 0.0;  // erasure: no information about this mother bit
    }
  }
  if (consumed != soft.size())
    throw std::invalid_argument("depuncture: soft stream too long");
}

bitvec viterbi_decode(std::span<const double> soft, std::size_t n_info,
                      double* final_metric) {
  const std::size_t n_steps = n_info + conv_tail_bits;
  if (soft.size() < 2 * n_steps)
    throw std::invalid_argument("viterbi_decode: soft stream too short");

  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  std::vector<double> metric(kStates, kNegInf);
  metric[0] = 0.0;
  // Survivor bits, one row of kStates entries per step.
  std::vector<std::uint8_t> survivor_input(n_steps * kStates);
  std::vector<std::uint8_t> survivor_prev(n_steps * kStates);

  // Gather form of the scatter update, one kernel call per step: next state
  // ns has exactly two predecessors 2*(ns & 31) and 2*(ns & 31) + 1, both
  // via input bit ns >> 5. The select is branchless — the data-dependent
  // winner made the scatter loop mispredict heavily. `c1 > c0` picks the
  // second predecessor only on strict improvement, matching the original
  // first-writer-wins tie break; -inf propagates through the sums, so an
  // unreachable predecessor never beats a reachable one and fully
  // unreachable states keep -inf. Their survivor entries are now written
  // too, but traceback starts at state 0 (finite metric, trellis is
  // terminated) and only ever follows winners, so decoded output is
  // unchanged. The AVX2 body lives in viterbi_kernels.cpp (per-TU flags,
  // contraction off) and is bit-identical to the scalar fallback there.
  std::vector<double> next_metric(kStates);
  for (std::size_t step = 0; step < n_steps; ++step) {
    const double s0 = soft[2 * step];      // positive favours coded bit 0
    const double s1 = soft[2 * step + 1];
    const int max_input = (step < n_info) ? 2 : 1;  // tail forces zeros
    const std::size_t row = step * kStates;
    detail::viterbi_acs_step(metric.data(), s0, s1, max_input,
                             next_metric.data(), survivor_input.data() + row,
                             survivor_prev.data() + row);
    metric.swap(next_metric);
  }

  if (final_metric) *final_metric = metric[0];

  // Trace back from the zero state (trellis was terminated).
  bitvec decoded(n_steps);
  int state = 0;
  for (std::size_t step = n_steps; step-- > 0;) {
    decoded[step] = survivor_input[step * kStates + state];
    state = survivor_prev[step * kStates + state];
  }
  decoded.resize(n_info);  // strip tail
  return decoded;
}

bitvec viterbi_decode_hard(std::span<const std::uint8_t> coded_bits,
                           std::size_t n_info) {
  std::vector<double> soft(coded_bits.size());
  for (std::size_t i = 0; i < coded_bits.size(); ++i)
    soft[i] = (coded_bits[i] & 1u) ? -1.0 : 1.0;
  return viterbi_decode(soft, n_info);
}

std::size_t coded_length(std::size_t n_info, code_rate rate) {
  const std::size_t mother = 2 * (n_info + conv_tail_bits);
  const auto pattern = puncture_pattern(rate);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < mother; ++i)
    if (pattern[i % pattern.size()]) ++kept;
  return kept;
}

}  // namespace backfi::phy
