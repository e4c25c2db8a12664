#include "wifi/ppdu.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "dsp/rng.h"
#include "phy/constellation.h"
#include "phy/convolutional.h"
#include "phy/interleaver.h"
#include "phy/scrambler.h"
#include "wifi/ofdm.h"
#include "wifi/preamble.h"

namespace backfi::wifi {

phy::bitvec signal_info_bits(wifi_rate rate, std::size_t length_bytes) {
  if (length_bytes == 0 || length_bytes > 4095)
    throw std::invalid_argument("signal_info_bits: LENGTH must be 1..4095");
  const auto& p = params_for(rate);
  phy::bitvec bits;
  bits.reserve(18);
  // RATE: 4 bits, R1 first (stored MSB-first in signal_bits).
  for (int i = 3; i >= 0; --i)
    bits.push_back(static_cast<std::uint8_t>((p.signal_bits >> i) & 1u));
  bits.push_back(0);  // reserved
  // LENGTH: 12 bits, LSB first.
  for (int i = 0; i < 12; ++i)
    bits.push_back(static_cast<std::uint8_t>((length_bytes >> i) & 1u));
  // Even parity over the first 17 bits.
  std::uint8_t parity = 0;
  for (std::uint8_t b : bits) parity ^= b;
  bits.push_back(parity);
  return bits;  // conv_encode's zero tail supplies the 6 SIGNAL tail bits
}

cvec signal_symbol(wifi_rate rate, std::size_t length_bytes) {
  const phy::bitvec info = signal_info_bits(rate, length_bytes);
  const phy::bitvec coded = phy::conv_encode(info);  // 48 bits, rate 1/2
  const phy::interleaver il(48, 1);
  const phy::bitvec interleaved = il.interleave(coded);
  const cvec points = phy::wifi_constellation(1).map(interleaved);
  return modulate_symbol(points, /*symbol_index=*/0);
}

data_plan make_data_plan(wifi_rate rate, std::size_t psdu_bytes,
                         std::uint8_t scrambler_seed) {
  if (psdu_bytes == 0 || psdu_bytes > 4095)
    throw std::invalid_argument("transmit: PSDU must be 1..4095 bytes");
  const auto& p = params_for(rate);
  data_plan plan;
  plan.rate = rate;
  plan.psdu_bytes = psdu_bytes;
  plan.n_data_symbols = data_symbol_count(psdu_bytes, rate);
  // Info bits fed to the convolutional encoder: SERVICE + PSDU + pad; the
  // encoder's own zero tail plays the role of the standard's tail bits.
  plan.n_info = plan.n_data_symbols * p.n_dbps - phy::conv_tail_bits;

  const phy::bitvec key = phy::scrambler_sequence(scrambler_seed, plan.n_info);
  plan.keystream.assign((plan.n_info + 7) / 8, 0);
  for (std::size_t t = 0; t < plan.n_info; ++t)
    plan.keystream[t / 8] |= static_cast<std::uint8_t>(key[t] << (t % 8));

  // Every symbol spans 2 * n_dbps mother bits, a whole number of puncture
  // periods for every 802.11a/g rate, so one per-symbol table serves all.
  const auto pattern = phy::puncture_pattern(p.coding);
  const std::size_t mother_per_symbol = 2 * p.n_dbps;
  if (mother_per_symbol % pattern.size() != 0)
    throw std::logic_error("transmit: symbol not aligned to puncture period");
  std::vector<std::uint16_t> kept;
  kept.reserve(p.n_cbps);
  for (std::size_t m = 0; m < mother_per_symbol; ++m)
    if (pattern[m % pattern.size()]) kept.push_back(static_cast<std::uint16_t>(m));
  if (kept.size() != p.n_cbps)
    throw std::logic_error("transmit: coded length mismatch");
  const phy::interleaver il(p.n_cbps, p.n_bpsc);
  plan.label_source.resize(p.n_cbps);
  for (std::size_t k = 0; k < p.n_cbps; ++k)
    plan.label_source[il.map_index(k)] = kept[k];

  const auto& constellation = phy::wifi_constellation(p.n_bpsc);
  plan.point_by_label.resize(constellation.points.size());
  for (std::size_t i = 0; i < constellation.points.size(); ++i)
    plan.point_by_label[constellation.labels[i]] = constellation.points[i];
  return plan;
}

namespace {

/// Expand packed LSB-first bits into one byte (0 or 1) per bit.
void unpack_bits(std::span<const std::uint64_t> words, std::uint8_t* out) {
  static const auto table = [] {
    std::array<std::uint64_t, 256> t{};
    for (std::size_t v = 0; v < 256; ++v)
      for (std::size_t b = 0; b < 8; ++b)
        t[v] |= static_cast<std::uint64_t>((v >> b) & 1u) << (8 * b);
    return t;
  }();
  for (const std::uint64_t w : words) {
    for (std::size_t k = 0; k < 8; ++k) {
      const std::uint64_t expanded = table[(w >> (8 * k)) & 0xFFu];
      std::memcpy(out, &expanded, 8);  // byte b of `expanded` = bit b
      out += 8;
    }
  }
}

/// Labels of one symbol's 48 subcarriers, gathered from its mother bits
/// (one byte per bit) through the plan's puncture + interleaver table.
template <std::size_t NBpsc>
void map_symbol(const std::uint8_t* mother, const data_plan& plan,
                std::span<cplx, n_data_subcarriers> points) {
  const std::uint16_t* src = plan.label_source.data();
  for (cplx& point : points) {
    std::uint32_t label = 0;
    for (std::size_t b = 0; b < NBpsc; ++b) label = (label << 1) | mother[src[b]];
    src += NBpsc;
    point = plan.point_by_label[label];
  }
}

}  // namespace

std::size_t modulate_data(const data_plan& plan,
                          std::span<const std::uint8_t> psdu,
                          std::span<cplx> out,
                          std::span<const dsp::sample_range> symbols) {
  if (psdu.size() != plan.psdu_bytes)
    throw std::invalid_argument("modulate_data: PSDU length differs from plan");
  if (out.size() != plan.n_data_symbols * symbol_samples)
    throw std::invalid_argument("modulate_data: output must span the DATA field");
  const auto& p = params_for(plan.rate);

  // Packed LSB-first info bits: SERVICE (two zero bytes), the PSDU bytes
  // verbatim, zero pad — scrambled by one XOR per byte — then encoded a
  // byte at a time into packed mother bits.
  thread_local std::vector<std::uint8_t> info;
  thread_local std::vector<std::uint64_t> mother;
  thread_local std::vector<std::uint8_t> selected;
  thread_local cvec freq_scratch;
  info.assign(plan.keystream.size(), 0);
  std::copy(psdu.begin(), psdu.end(), info.begin() + 2);
  for (std::size_t i = 0; i < info.size(); ++i) info[i] ^= plan.keystream[i];
  mother.resize(phy::conv_packed_words(plan.n_info));
  phy::conv_encode_packed(info, plan.n_info, mother);

  selected.assign(plan.n_data_symbols, 0);
  for (const dsp::sample_range& r : symbols) {
    const std::size_t end = std::min(r.end, plan.n_data_symbols);
    for (std::size_t s = r.begin; s < end; ++s) selected[s] = 1;
  }

  // Each selected symbol expands only the words holding its 2 * n_dbps
  // mother bits (at most 432 bits, so 8 words) to one byte per bit.
  std::array<std::uint8_t, 64 * 8> mother_bits;
  std::array<cplx, n_data_subcarriers> points;
  const std::size_t mother_per_symbol = 2 * p.n_dbps;
  std::size_t written = 0;
  for (std::size_t s = 0; s < plan.n_data_symbols; ++s) {
    if (!selected[s]) continue;
    const std::size_t first_bit = s * mother_per_symbol;
    const std::size_t w0 = first_bit / 64;
    const std::size_t w1 = (first_bit + mother_per_symbol + 63) / 64;
    unpack_bits(std::span<const std::uint64_t>(mother).subspan(w0, w1 - w0),
                mother_bits.data());
    const std::uint8_t* m = mother_bits.data() + (first_bit - 64 * w0);
    switch (p.n_bpsc) {
      case 1: map_symbol<1>(m, plan, points); break;
      case 2: map_symbol<2>(m, plan, points); break;
      case 4: map_symbol<4>(m, plan, points); break;
      case 6: map_symbol<6>(m, plan, points); break;
      default: throw std::logic_error("modulate_data: unsupported n_bpsc");
    }
    modulate_symbol_into(points, s + 1,  // SIGNAL was index 0
                         out.subspan(s * symbol_samples, symbol_samples),
                         freq_scratch);
    ++written;
  }
  return written;
}

std::size_t modulate_data(const data_plan& plan,
                          std::span<const std::uint8_t> psdu,
                          std::span<cplx> out) {
  const dsp::sample_range all{0, plan.n_data_symbols};
  return modulate_data(plan, psdu, out, std::span(&all, 1));
}

tx_ppdu transmit(std::span<const std::uint8_t> psdu, const tx_config& config) {
  const data_plan plan =
      make_data_plan(config.rate, psdu.size(), config.scrambler_seed);
  tx_ppdu out;
  out.rate = config.rate;
  out.psdu_bytes = psdu.size();
  out.payload.assign(psdu.begin(), psdu.end());
  out.n_data_symbols = plan.n_data_symbols;
  out.data_start = preamble_samples + symbol_samples;
  out.samples = legacy_preamble();
  const cvec sig = signal_symbol(config.rate, psdu.size());
  out.samples.insert(out.samples.end(), sig.begin(), sig.end());
  out.samples.resize(out.data_start + plan.n_data_symbols * symbol_samples);
  modulate_data(plan, psdu,
                std::span<cplx>(out.samples).subspan(out.data_start));
  return out;
}

std::size_t ppdu_length_samples(std::size_t length_bytes, wifi_rate rate) {
  return preamble_samples + symbol_samples +
         data_symbol_count(length_bytes, rate) * symbol_samples;
}

tx_ppdu random_ppdu(std::size_t length_bytes, const tx_config& config,
                    std::uint64_t seed) {
  dsp::rng gen(seed);
  std::vector<std::uint8_t> psdu(length_bytes);
  gen.uniform_bytes(psdu);
  return transmit(psdu, config);
}

}  // namespace backfi::wifi
