// Unit tests of the regime benchmark's own helpers: statistics, counter
// deltas, span accounting, the output checks and the public-call replay.
// Each check is also fed a deliberately wrong input it must reject.
//
//   python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "checks.h"
#include "impair/plan.h"
#include "reader/excitation.h"
#include "replay.h"
#include "sim/backscatter_sim.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace backfi;

TEST(StatsTest, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(StatsTest, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles(values, n=4) reference values.
  const quartile_set a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.q2, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  const quartile_set b = quartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(b.q1, 1.5);
  EXPECT_DOUBLE_EQ(b.q2, 3.0);
  EXPECT_DOUBLE_EQ(b.q3, 4.5);
  // Two values: the end cuts extrapolate, as Python's do.
  const quartile_set c = quartiles({1, 2});
  EXPECT_DOUBLE_EQ(c.q1, 0.75);
  EXPECT_DOUBLE_EQ(c.q3, 2.25);
  const quartile_set d =
      quartiles({10.0, 10.5, 9.8, 10.2, 10.1, 9.9, 10.4, 10.0, 10.3, 9.7});
  EXPECT_NEAR(d.relative_spread(), (10.325 - 9.875) / 10.05, 1e-12);
  EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(StatsTest, TailPercentileKeepsTenSamplesBeyond) {
  const tail_estimate full = tail_percentile(one_to(1000), 99.0);
  EXPECT_TRUE(full.supported);
  EXPECT_DOUBLE_EQ(full.percentile, 99.0);
  EXPECT_DOUBLE_EQ(full.value, 990.0);
  EXPECT_EQ(full.samples, 1000u);

  // 500 samples cannot support p99 (only 5 beyond it): the estimate falls
  // back to the highest percentile with ten samples beyond.
  const tail_estimate short_run = tail_percentile(one_to(500), 99.0);
  EXPECT_TRUE(short_run.supported);
  EXPECT_DOUBLE_EQ(short_run.percentile, 98.0);
  EXPECT_DOUBLE_EQ(short_run.value, 490.0);
  EXPECT_EQ(short_run.samples, 500u);

  EXPECT_FALSE(tail_percentile(one_to(10), 99.0).supported);
  EXPECT_FALSE(tail_percentile(one_to(1000), 0.0).supported);
  EXPECT_FALSE(tail_percentile(one_to(1000), 120.0).supported);
}

TEST(StatsTest, CounterDeltasAttributeWorkAndRejectSwappedSnapshots) {
  const counter_snapshot before = counter_snapshot::take();
  reader::excitation_config cfg;
  cfg.payload_seed = 0x5eed;
  reader::build_excitation(cfg);
  reader::build_excitation(cfg);  // same key: a cache hit
  const counter_snapshot after = counter_snapshot::take();
  const counter_snapshot d = after.since(before);
  EXPECT_EQ(d.excitation_hits + d.excitation_misses, 2u);
  EXPECT_GE(d.excitation_hits, 1u);
  EXPECT_THROW(before.since(after), std::logic_error);

  counter_snapshot sum;
  sum += d;
  sum += d;
  EXPECT_EQ(sum.excitation_hits, 2 * d.excitation_hits);
  EXPECT_DOUBLE_EQ(hit_fraction(3, 1), 0.75);
  EXPECT_DOUBLE_EQ(hit_fraction(0, 0), 0.0);
}

TEST(TraceTest, SelfTimeSubtractsDirectChildren) {
  // trial [0,100) with excitation [10,30) and packet [40,90), whose chain
  // child covers [50,70).
  const std::vector<span> spans = {
      {layer::trial, -1, 7, 0, 100},
      {layer::excitation, 0, 7, 10, 30},
      {layer::packet, 0, 7, 40, 90},
      {layer::receive_chain, 2, 7, 50, 70},
  };
  layer_totals t;
  accumulate(t, spans);
  EXPECT_DOUBLE_EQ(t.self_ns[static_cast<int>(layer::trial)], 30.0);
  EXPECT_DOUBLE_EQ(t.self_ns[static_cast<int>(layer::excitation)], 20.0);
  EXPECT_DOUBLE_EQ(t.self_ns[static_cast<int>(layer::packet)], 30.0);
  EXPECT_DOUBLE_EQ(t.self_ns[static_cast<int>(layer::receive_chain)], 20.0);
  EXPECT_EQ(t.roots, 1u);
  EXPECT_DOUBLE_EQ(t.coverage(), 0.7);
  ASSERT_EQ(t.trial_ns.size(), 1u);
  EXPECT_DOUBLE_EQ(t.packet_ns.at(0), 50.0);

  // A parent that does not precede its child is rejected.
  layer_totals bad;
  EXPECT_THROW(accumulate(bad, {{layer::trial, 0, 1, 0, 10}}),
               std::invalid_argument);
  EXPECT_THROW(accumulate(bad, {{layer::trial, -1, 1, 10, 5}}),
               std::invalid_argument);
}

TEST(TraceTest, SpanLogNestsAndClosesInnerSpans) {
  span_log log;
  {
    scoped_span outer(&log, layer::trial, 3);
    scoped_span inner(&log, layer::awgn, 3);
    outer.stop();  // closes the still-open inner span too
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_LE(log.spans()[1].end_ns, log.spans()[0].end_ns);
  scoped_span off(nullptr, layer::trial, 0);  // null log: records nothing
  EXPECT_EQ(log.spans().size(), 2u);
}

TEST(ChecksTest, TrialFailsOnlyWhenCrcPassesWithBitErrors) {
  sim::trial_result r;
  EXPECT_TRUE(trial_output_ok(r));
  r.crc_ok = true;
  EXPECT_TRUE(trial_output_ok(r));
  r.bit_errors = 1;  // CRC accepted a wrong payload
  EXPECT_FALSE(trial_output_ok(r));
  r.crc_ok = false;  // rejected packets are correct outputs
  EXPECT_TRUE(trial_output_ok(r));
}

TEST(ChecksTest, MismatchesCountDifferencesAndMissingEntries) {
  const std::vector<int> a = {1, 2, 3};
  EXPECT_EQ(count_mismatches(a, a), 0u);
  EXPECT_EQ(count_mismatches(a, std::vector<int>{1, 5, 3}), 1u);
  EXPECT_EQ(count_mismatches(a, std::vector<int>{1, 2}), 1u);
  EXPECT_EQ(count_mismatches(a, std::vector<int>{}), 3u);
}

TEST(ChecksTest, WrongPayloadsAreCaughtAgainstGroundTruth) {
  sim::stream_capture cap;
  cap.payloads = {{1, 0, 1}, {0, 0, 1}, {}};
  cap.woke = {1, 1, 0};
  std::vector<packet_signature> got = {
      {true, true, true, {1, 0, 1}},
      {true, true, false, {1, 1, 1}},  // CRC failed: not a wrong output
      {false, false, false, {}},
  };
  EXPECT_EQ(count_wrong_payloads(got, cap), 0u);
  got[0].payload = {1, 1, 1};  // CRC-ok with the wrong bits
  EXPECT_EQ(count_wrong_payloads(got, cap), 1u);
  got[2].crc_ok = true;  // CRC-ok although the tag never answered
  EXPECT_EQ(count_wrong_payloads(got, cap), 2u);
}

TEST(ChecksTest, DecodeShortfallFlagsAYieldBelowTheFloor) {
  EXPECT_EQ(decode_shortfall(80, 100, 0.8), 0u);
  EXPECT_EQ(decode_shortfall(95, 100, 0.8), 0u);
  EXPECT_EQ(decode_shortfall(79, 100, 0.8), 1u);
  EXPECT_EQ(decode_shortfall(0, 256, 0.5), 128u);  // a decoder that gave up
  EXPECT_EQ(decode_shortfall(0, 3, 0.5), 2u);      // the floor rounds up
  EXPECT_EQ(decode_shortfall(0, 0, 0.5), 0u);
}

TEST(ChecksTest, SweepCellsCompareOperatingPointAndPer) {
  EXPECT_FALSE(outcome_of(std::nullopt).found);
  sim::link_evaluation eval;
  eval.point.rate = {tag::tag_modulation::psk16, phy::code_rate::half, 2.5e6};
  eval.packet_error_rate = 0.25;
  const cell_outcome a = outcome_of(eval);
  EXPECT_TRUE(a.found);
  eval.packet_error_rate = 0.5;
  EXPECT_NE(a, outcome_of(eval));
  eval.packet_error_rate = 0.25;
  eval.point.rate.symbol_rate_hz = 1e6;
  EXPECT_NE(a, outcome_of(eval));
}

sim::scenario_config fig08_mid(std::uint64_t seed) {
  sim::scenario_config cfg;
  cfg.excitation.ppdu_bytes = 4000;
  cfg.payload_bits = 600;
  cfg.tag_distance_m = 2.0;
  cfg.tag.rate = {tag::tag_modulation::psk16, phy::code_rate::half, 2.5e6};
  cfg.seed = seed;
  return cfg;
}

TEST(ReplayTest, ReproducesTheProgramsTrials) {
  sim::trial_workspace ws;
  span_log log;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const sim::scenario_config cfg = fig08_mid(seed);
    const replay_outcome rep = replay_trial(cfg, ws, &log, seed);
    EXPECT_TRUE(same_outcome(rep.result, sim::run_backscatter_trial(cfg)))
        << "seed " << seed;
    if (rep.ran_chain) {
      EXPECT_FALSE(rep.hooked);
      EXPECT_GT(rep.roi_samples_skipped, 0u);  // the ROI path ran
    }
  }
  layer_totals t;
  accumulate(t, log.spans());
  EXPECT_EQ(t.roots, 3u);
  EXPECT_GT(t.coverage(), 0.9);
}

TEST(ReplayTest, ImpairedTrialsTakeTheFullRangeChain) {
  sim::trial_workspace ws;
  for (const impair::fault_class fault :
       {impair::fault_class::cfo_drift, impair::fault_class::canceller_drift}) {
    sim::scenario_config cfg = fig08_mid(11);
    cfg.impairments = impair::plan_for(fault, 1.0, cfg.seed);
    const replay_outcome rep = replay_trial(cfg, ws, nullptr, 0);
    EXPECT_TRUE(same_outcome(rep.result, sim::run_backscatter_trial(cfg)));
    ASSERT_TRUE(rep.ran_chain);
    EXPECT_TRUE(rep.hooked);
    EXPECT_EQ(rep.roi_samples_skipped, 0u);
  }
}

TEST(ReplayTest, SameOutcomeRejectsAnyChangedField) {
  const sim::trial_result r =
      sim::run_backscatter_trial(fig08_mid(5));
  sim::trial_result changed = r;
  EXPECT_TRUE(same_outcome(r, changed));
  changed.link.post_mrc_snr_db += 1e-9;
  EXPECT_FALSE(same_outcome(r, changed));
  changed = r;
  changed.crc_ok = !changed.crc_ok;
  EXPECT_FALSE(same_outcome(r, changed));
  changed = r;
  changed.raw_symbol_errors += 1;
  EXPECT_FALSE(same_outcome(r, changed));
}

}  // namespace
}  // namespace perfbench
