#include "sim/coexistence.h"

#include <gtest/gtest.h>

#include <cmath>

#include "channel/pathloss.h"

namespace backfi::sim {
namespace {

coexistence_config base_config() {
  coexistence_config cfg;
  cfg.ap_client_distance_m = 5.0;
  cfg.ap_tag_distance_m = 1.0;
  cfg.rate = wifi::wifi_rate::mbps24;
  cfg.ppdu_bytes = 500;
  cfg.tag.rate = {tag::tag_modulation::qpsk, phy::code_rate::half, 1e6};
  cfg.seed = 1;
  return cfg;
}

TEST(CoexistenceTest, ClientDecodesWithInactiveTag) {
  coexistence_config cfg = base_config();
  cfg.tag_active = false;
  const auto r = run_coexistence_trial(cfg);
  EXPECT_TRUE(r.client_decoded);
  EXPECT_GT(r.client_snr_db, 20.0);
}

TEST(CoexistenceTest, ClientDecodesWithTagAtModerateDistance) {
  // Paper Fig. 12b: beyond ~0.5 m tag-AP separation the impact vanishes.
  coexistence_config cfg = base_config();
  cfg.tag_active = true;
  cfg.ap_tag_distance_m = 2.0;
  const auto r = run_coexistence_trial(cfg);
  EXPECT_TRUE(r.client_decoded);
}

TEST(CoexistenceTest, VeryCloseTagDegradesSnr) {
  // Paper Fig. 13b: tag at 0.25 m measurably lowers client SNR. The tag
  // stays silent through the client's preamble, so the preamble SNR
  // estimate (client_snr_db) cannot see it: with on/off runs sharing one
  // noise realization it is identical, and over 60 seeds its means agree
  // within 0.1 dB. The drop shows on the data symbols, so the SNR compared
  // here is the EVM-derived -20 log10(EVM).
  double snr_on = 0.0, snr_off = 0.0;
  const int trials = 6;
  auto data_snr_db = [](const coexistence_result& r) {
    return -20.0 * std::log10(r.client_evm_rms);
  };
  for (int t = 0; t < trials; ++t) {
    coexistence_config cfg = base_config();
    cfg.ap_tag_distance_m = 0.25;
    cfg.seed = 100 + t;
    cfg.tag_active = true;
    snr_on += data_snr_db(run_coexistence_trial(cfg));
    cfg.tag_active = false;
    snr_off += data_snr_db(run_coexistence_trial(cfg));
  }
  EXPECT_LT(snr_on, snr_off);
}

TEST(CoexistenceTest, ImpactShrinksWithTagDistance) {
  auto evm_at = [&](double d_tag) {
    double acc = 0.0;
    const int trials = 5;
    for (int t = 0; t < trials; ++t) {
      coexistence_config cfg = base_config();
      cfg.ap_tag_distance_m = d_tag;
      cfg.seed = 200 + t;
      acc += run_coexistence_trial(cfg).client_evm_rms;
    }
    return acc / trials;
  };
  EXPECT_GT(evm_at(0.25), evm_at(4.0));
}

TEST(CoexistenceTest, ThroughputReflectsPacketSuccess) {
  coexistence_config cfg = base_config();
  cfg.tag_active = false;
  const double tput = client_throughput_bps(cfg, 4);
  EXPECT_NEAR(tput, 24e6, 1e-6);  // every packet decodes at this SNR
}

TEST(CoexistenceTest, DistanceForClientSnrInvertsLinkBudget) {
  const channel::link_budget budget;
  for (double snr : {15.0, 25.0, 35.0}) {
    const double d = distance_for_client_snr(budget, snr);
    ASSERT_GT(d, 0.0);
    // Round-trip: a client at distance d should see roughly snr.
    const double pl = channel::log_distance_path_loss_db(
        d, budget.frequency_hz, budget.path_loss_exponent);
    const double floor = channel::noise_floor_dbm(budget.bandwidth_hz,
                                                  budget.noise_figure_db);
    EXPECT_NEAR(budget.tx_power_dbm - pl - floor, snr, 0.1) << snr;
  }
}

TEST(CoexistenceTest, WorstCaseCollinearTagClientDistance) {
  coexistence_config cfg = base_config();
  cfg.ap_client_distance_m = 5.0;
  cfg.ap_tag_distance_m = 0.25;
  cfg.tag_client_distance_m = -1.0;  // auto: |5 - 0.25| = 4.75
  // Just exercise the path; the trial must complete.
  const auto r = run_coexistence_trial(cfg);
  EXPECT_GE(r.client_snr_db, 0.0);
}

}  // namespace
}  // namespace backfi::sim
