#include "channel/awgn.h"

#include <cmath>

#include "channel/pathloss.h"
#include "dsp/math_util.h"
#include "dsp/philox.h"

namespace backfi::channel {

void add_awgn(std::span<cplx> x, double noise_power, dsp::rng& gen) {
  // Documented contract: non-positive power consumes zero draws.
  if (noise_power <= 0.0 || x.empty()) return;
  dsp::add_complex_normals(gen.next_u64(), 0, x, std::sqrt(noise_power));
}

double normalized_noise_power(double tx_power_dbm, double bandwidth_hz,
                              double noise_figure_db) {
  const double floor_dbm = noise_floor_dbm(bandwidth_hz, noise_figure_db);
  return dsp::from_db(floor_dbm - tx_power_dbm);
}

}  // namespace backfi::channel
