#include "channel/awgn.h"

#include <algorithm>
#include <cmath>

#include "channel/pathloss.h"
#include "dsp/math_util.h"
#include "dsp/philox.h"

namespace backfi::channel {

void add_awgn(std::span<cplx> x, double noise_power, dsp::rng& gen) {
  const dsp::sample_range all{0, x.size()};
  add_awgn(x, noise_power, gen, std::span(&all, 1));
}

void add_awgn(std::span<cplx> x, double noise_power, dsp::rng& gen,
              std::span<const dsp::sample_range> ranges) {
  const awgn_stream noise = draw_awgn_stream(noise_power, x.size(), gen);
  for (const dsp::sample_range& r : ranges) {
    const std::size_t end = std::min(r.end, x.size());
    const std::size_t begin = std::min(r.begin, end);
    add_awgn(x.subspan(begin, end - begin), noise, begin);
  }
}

awgn_stream draw_awgn_stream(double noise_power, std::size_t capture_len,
                             dsp::rng& gen) {
  // Documented contract: non-positive power consumes zero draws.
  if (noise_power <= 0.0 || capture_len == 0) return {};
  return {.active = true, .key = gen.next_u64(), .amp = std::sqrt(noise_power)};
}

void add_awgn(std::span<cplx> x, const awgn_stream& noise, std::size_t first) {
  if (noise.active) dsp::add_complex_normals(noise.key, first, x, noise.amp);
}

double normalized_noise_power(double tx_power_dbm, double bandwidth_hz,
                              double noise_figure_db) {
  const double floor_dbm = noise_floor_dbm(bandwidth_hz, noise_figure_db);
  return dsp::from_db(floor_dbm - tx_power_dbm);
}

}  // namespace backfi::channel
