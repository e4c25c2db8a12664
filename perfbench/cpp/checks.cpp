#include "checks.h"

#include <cmath>

namespace perfbench {

using namespace backfi;

bool trial_output_ok(const sim::trial_result& result) {
  return !(result.crc_ok && result.bit_errors != 0);
}

std::uint64_t decode_shortfall(std::uint64_t crc_ok, std::uint64_t attempted,
                               double floor) {
  const auto needed = static_cast<std::uint64_t>(
      std::ceil(floor * static_cast<double>(attempted)));
  return needed > crc_ok ? needed - crc_ok : 0;
}

std::vector<packet_signature> signatures_of(
    const std::vector<reader::stream_packet_result>& results) {
  std::vector<packet_signature> out;
  out.reserve(results.size());
  for (const reader::stream_packet_result& r : results) {
    packet_signature s;
    s.sync_found = r.decoded.sync_found;
    s.decoded = r.decoded.decoded;
    s.crc_ok = r.decoded.crc_ok;
    if (s.decoded) s.payload = r.decoded.payload;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<packet_signature> signatures_of(
    const sim::stream_trial_result& reference) {
  std::vector<packet_signature> out;
  out.reserve(reference.packets.size());
  for (const sim::stream_packet_outcome& p : reference.packets)
    out.push_back({p.sync_found, p.decoded, p.crc_ok,
                   p.decoded ? p.payload : phy::bitvec{}});
  return out;
}

std::size_t count_wrong_payloads(const std::vector<packet_signature>& got,
                                 const sim::stream_capture& capture) {
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!got[i].crc_ok) continue;
    const bool truth = i < capture.woke.size() && capture.woke[i] != 0;
    if (!truth || got[i].payload != capture.payloads[i]) ++wrong;
  }
  return wrong;
}

cell_outcome outcome_of(const std::optional<sim::link_evaluation>& best) {
  cell_outcome c;
  if (!best) return c;
  c.found = true;
  c.modulation = best->point.rate.modulation;
  c.coding = best->point.rate.coding;
  c.symbol_rate_hz = best->point.rate.symbol_rate_hz;
  c.per = best->packet_error_rate;
  return c;
}

}  // namespace perfbench
