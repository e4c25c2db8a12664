#include "reader/excitation.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

#include "dsp/rng.h"
#include "phy/prbs.h"
#include "wifi/ofdm.h"
#include "wifi/preamble.h"

namespace backfi::reader {

namespace {

constexpr std::size_t samples_per_wake_bit = 20;  // 1 us at 20 MS/s

// Everything in the excitation that does not depend on the per-trial payload
// seed: the tag's wake preamble (bits + expanded on/off pulses), the WiFi
// legacy preamble + SIGNAL symbol of each PPDU, and the DATA-field plan
// (scrambler keystream, puncture + interleaver gather table, mapper LUT).
// Entries live on an immutable singly-linked list (same publication
// pattern as the dsp fft_plan cache): steady-state lookups are one acquire
// load and a short walk, misses build the entry under a mutex, and entries
// are never destroyed so references stay valid for the life of the process.
struct prefix_entry {
  std::uint32_t tag_id = 0;
  std::size_t wake_bits = 0;
  wifi::wifi_rate rate{};
  std::size_t ppdu_bytes = 0;
  phy::bitvec wake_preamble;
  cvec wake_samples;  ///< wake preamble expanded to 1 us on/off pulses
  cvec ppdu_prefix;   ///< legacy preamble + SIGNAL symbol for this shape
  wifi::data_plan plan;
  const prefix_entry* next = nullptr;
};

std::atomic<const prefix_entry*> g_prefix_head{nullptr};
std::mutex g_prefix_mutex;

const prefix_entry& prefix_for(const excitation_config& config) {
  auto matches = [&](const prefix_entry& e) {
    return e.tag_id == config.tag_id && e.wake_bits == config.wake_bits &&
           e.rate == config.rate && e.ppdu_bytes == config.ppdu_bytes;
  };
  for (const prefix_entry* e = g_prefix_head.load(std::memory_order_acquire);
       e != nullptr; e = e->next)
    if (matches(*e)) return *e;

  std::lock_guard<std::mutex> lock(g_prefix_mutex);
  for (const prefix_entry* e = g_prefix_head.load(std::memory_order_acquire);
       e != nullptr; e = e->next)
    if (matches(*e)) return *e;

  auto entry = std::make_unique<prefix_entry>();
  entry->tag_id = config.tag_id;
  entry->wake_bits = config.wake_bits;
  entry->rate = config.rate;
  entry->ppdu_bytes = config.ppdu_bytes;
  entry->wake_preamble = phy::wake_preamble(config.tag_id, config.wake_bits);
  entry->wake_samples.reserve(entry->wake_preamble.size() * samples_per_wake_bit);
  for (std::uint8_t bit : entry->wake_preamble) {
    const cplx level = bit ? cplx{1.0, 0.0} : cplx{0.0, 0.0};
    entry->wake_samples.insert(entry->wake_samples.end(), samples_per_wake_bit,
                               level);
  }
  entry->ppdu_prefix = wifi::legacy_preamble();
  const cvec sig = wifi::signal_symbol(config.rate, config.ppdu_bytes);
  entry->ppdu_prefix.insert(entry->ppdu_prefix.end(), sig.begin(), sig.end());
  entry->plan = wifi::make_data_plan(config.rate, config.ppdu_bytes);

  entry->next = g_prefix_head.load(std::memory_order_relaxed);
  const prefix_entry* raw = entry.release();
  g_prefix_head.store(raw, std::memory_order_release);
  return *raw;
}

}  // namespace

excitation build_excitation(const excitation_config& config) {
  excitation out;
  build_excitation_into(config, out);
  return out;
}

void build_excitation_into(const excitation_config& config, excitation& out,
                           dsp::workspace_stats* stats) {
  prepare_excitation_into(config, out, stats);
  const dsp::sample_range all{0, out.samples.size()};
  modulate_excitation_into(config, std::span(&all, 1), out);
}

void prepare_excitation_into(const excitation_config& config, excitation& out,
                             dsp::workspace_stats* stats) {
  const prefix_entry& pre = prefix_for(config);
  const wifi::data_plan& plan = pre.plan;

  out.wake_preamble = pre.wake_preamble;
  dsp::acquire(out.samples, excitation_length(config), stats);
  std::copy(pre.wake_samples.begin(), pre.wake_samples.end(),
            out.samples.begin());
  out.wake_end = pre.wake_samples.size();
  out.ppdu_start = out.wake_end;

  out.ppdu.samples.clear();
  out.ppdu.rate = config.rate;
  out.ppdu.psdu_bytes = config.ppdu_bytes;
  out.ppdu.n_data_symbols = plan.n_data_symbols;
  out.ppdu.data_start = pre.ppdu_prefix.size();

  const std::size_t ppdu_samples =
      pre.ppdu_prefix.size() + plan.n_data_symbols * wifi::symbol_samples;
  for (std::size_t i = 0; i < std::max<std::size_t>(config.n_ppdus, 1); ++i)
    std::copy(pre.ppdu_prefix.begin(), pre.ppdu_prefix.end(),
              out.samples.begin() +
                  static_cast<std::ptrdiff_t>(out.ppdu_start + i * ppdu_samples));
}

std::size_t modulate_excitation_into(const excitation_config& config,
                                     std::span<const dsp::sample_range> ranges,
                                     excitation& out) {
  const wifi::data_plan& plan = prefix_for(config).plan;
  const std::size_t data_samples = plan.n_data_symbols * wifi::symbol_samples;
  const std::size_t ppdu_samples = out.ppdu.data_start + data_samples;
  thread_local std::vector<std::uint8_t> psdu_scratch;
  thread_local std::vector<dsp::sample_range> symbols;
  std::span<cplx> samples(out.samples);
  std::size_t modulated = 0;
  for (std::size_t i = 0; i < std::max<std::size_t>(config.n_ppdus, 1); ++i) {
    // The DATA symbols of PPDU i that overlap a range.
    const std::size_t data_begin =
        out.ppdu_start + i * ppdu_samples + out.ppdu.data_start;
    const std::size_t data_end = data_begin + data_samples;
    symbols.clear();
    for (const dsp::sample_range& r : ranges) {
      const std::size_t lo = std::max(r.begin, data_begin);
      const std::size_t hi = std::min(r.end, data_end);
      if (lo < hi)
        symbols.push_back({(lo - data_begin) / wifi::symbol_samples,
                           (hi - data_begin + wifi::symbol_samples - 1) /
                               wifi::symbol_samples});
    }
    if (i > 0 && symbols.empty()) continue;
    std::vector<std::uint8_t>& psdu = (i == 0) ? out.ppdu.payload : psdu_scratch;
    psdu.resize(config.ppdu_bytes);
    dsp::rng(config.payload_seed + i).uniform_bytes(psdu);
    if (symbols.empty()) continue;
    modulated += wifi::modulate_data(plan, psdu,
                                     samples.subspan(data_begin, data_samples),
                                     symbols);
  }
  return modulated;
}

std::size_t excitation_length(const excitation_config& config) {
  return config.wake_bits * samples_per_wake_bit +
         std::max<std::size_t>(config.n_ppdus, 1) *
             wifi::ppdu_length_samples(config.ppdu_bytes, config.rate);
}

}  // namespace backfi::reader
