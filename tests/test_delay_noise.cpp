// End-to-end delay-noise analysis tests (core/delay_noise.*,
// core/baselines.*): integration of the full paper flow, including the
// golden nonlinear comparison.
#include "core/delay_noise.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/baselines.hpp"
#include "core/holding_resistance.hpp"
#include "rcnet/random_nets.hpp"
#include "util/metrics.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

class DelayNoiseFixture : public ::testing::Test {
 protected:
  DelayNoiseFixture() : net_(example_coupled_net(1)), eng_(net_) {}
  CoupledNet net_;
  SuperpositionEngine eng_;
};

TEST_F(DelayNoiseFixture, ExhaustiveFlowProducesPositiveDelayNoise) {
  DelayNoiseOptions opts;
  opts.method = AlignmentMethod::Exhaustive;
  const DelayNoiseResult r = analyze_delay_noise(eng_, opts);
  EXPECT_GT(r.delay_noise(), 10 * ps);
  EXPECT_GT(r.input_delay_noise(), 10 * ps);
  EXPECT_GT(r.noisy_t50, r.nominal_t50);
  EXPECT_LT(r.composite.params.height, 0.0);  // Opposing noise.
  EXPECT_GT(r.holding_r, 0.0);
  EXPECT_GT(r.rtr_iterations, 0);
}

TEST_F(DelayNoiseFixture, TheveninFlowSkipsRtr) {
  DelayNoiseOptions opts;
  opts.use_transient_holding = false;
  const DelayNoiseResult r = analyze_delay_noise(eng_, opts);
  EXPECT_DOUBLE_EQ(r.holding_r, r.rth);
  EXPECT_EQ(r.rtr_iterations, 0);
}

TEST_F(DelayNoiseFixture, ExhaustiveDominatesOtherMethods) {
  DelayNoiseOptions ex;
  ex.method = AlignmentMethod::Exhaustive;
  DelayNoiseOptions rip;
  rip.method = AlignmentMethod::ReceiverInputPeak;
  const double d_ex = analyze_delay_noise(eng_, ex).delay_noise();
  const double d_rip = analyze_delay_noise(eng_, rip).delay_noise();
  EXPECT_GE(d_ex, d_rip - 2 * ps);
}

TEST_F(DelayNoiseFixture, PredictedMethodNeedsTable) {
  DelayNoiseOptions opts;
  opts.method = AlignmentMethod::Predicted;
  EXPECT_THROW(analyze_delay_noise(eng_, opts), std::invalid_argument);
}

TEST_F(DelayNoiseFixture, PredictedMethodTracksExhaustive) {
  AlignmentTableSpec spec;
  spec.search.coarse_points = 17;
  spec.search.fine_points = 9;
  spec.search.dt = 2 * ps;
  const AlignmentTable tbl =
      AlignmentTable::characterize(net_.victim.receiver, true, spec);

  DelayNoiseOptions pred;
  pred.method = AlignmentMethod::Predicted;
  pred.table = &tbl;
  DelayNoiseOptions ex;
  ex.method = AlignmentMethod::Exhaustive;
  const DelayNoiseResult r_pred = analyze_delay_noise(eng_, pred);
  const DelayNoiseResult r_ex = analyze_delay_noise(eng_, ex);
  EXPECT_LE(r_pred.delay_noise(), r_ex.delay_noise() + 2 * ps);
  EXPECT_GT(r_pred.delay_noise(), 0.7 * r_ex.delay_noise());
}

TEST_F(DelayNoiseFixture, WarmStartChainsThePredictedReceiverEvals) {
  // The Predicted path evaluates the receiver 7 times on this net: 2
  // candidates in each of the 3 alignment choices (its fix-point takes
  // two Rtr steps), plus the nominal delay. With warm starts on, each one
  // after the first seeds its DC point from the previous one; with them
  // off, none does.
  AlignmentTableSpec spec;
  spec.search.coarse_points = 9;
  spec.search.fine_points = 5;
  spec.search.dt = 2 * ps;
  const AlignmentTable tbl =
      AlignmentTable::characterize(net_.victim.receiver, true, spec);
  DelayNoiseOptions opts;
  opts.method = AlignmentMethod::Predicted;
  opts.table = &tbl;

  obs::set_metrics_enabled(true);
  const obs::Counter& hits = obs::metrics().counter("sim.warm_start.hits");
  auto hits_during = [&](bool warm) {
    opts.search.warm_start = warm;
    const std::uint64_t before = hits.value();
    analyze_delay_noise(eng_, opts);
    return hits.value() - before;
  };
  const std::uint64_t on = hits_during(true);
  const std::uint64_t off = hits_during(false);
  obs::set_metrics_enabled(false);
  EXPECT_EQ(on, 6u);
  EXPECT_EQ(off, 0u);
}

TEST_F(DelayNoiseFixture, NoisySinkIsSuperposition) {
  DelayNoiseOptions opts;
  const DelayNoiseResult r = analyze_delay_noise(eng_, opts);
  const Pwl manual = r.noiseless_sink +
                     r.composite.at_sink.shifted(r.alignment.shift);
  for (double t = 0; t < 3 * ns; t += 150 * ps)
    EXPECT_NEAR(r.noisy_sink.at(t), manual.at(t), 1e-9);
}

TEST_F(DelayNoiseFixture, AbsoluteShiftsCombineAlignmentAndPeaks) {
  DelayNoiseOptions opts;
  const DelayNoiseResult r = analyze_delay_noise(eng_, opts);
  const auto shifts = absolute_shifts(r);
  ASSERT_EQ(shifts.size(), 1u);
  EXPECT_NEAR(shifts[0], r.composite.shifts[0] + r.alignment.shift, 1e-18);
}

TEST_F(DelayNoiseFixture, GoldenAgreesWithinModelingError) {
  DelayNoiseOptions opts;
  opts.method = AlignmentMethod::Exhaustive;
  const DelayNoiseResult r = analyze_delay_noise(eng_, opts);
  const GoldenResult g = golden_nonlinear(net_, absolute_shifts(r), {});
  EXPECT_GT(g.delay_noise(), 10 * ps);
  // Linear-superposition flows carry modeling error vs full nonlinear;
  // the paper reports ~7-8% for Rtr. Allow a generous envelope.
  const double rel =
      std::abs(r.delay_noise() - g.delay_noise()) / g.delay_noise();
  EXPECT_LT(rel, 0.30);
}

TEST_F(DelayNoiseFixture, WindowConstraintForcesEarlyAlignment) {
  DelayNoiseOptions free;
  free.method = AlignmentMethod::Exhaustive;
  const DelayNoiseResult r_free = analyze_delay_noise(eng_, free);

  DelayNoiseOptions boxed = free;
  const auto t20 = r_free.noiseless_sink.crossing(0.2 * 1.8, true);
  ASSERT_TRUE(t20.has_value());
  boxed.search.domain = ScanDomain::interval(*t20 - 400 * ps, *t20);
  const DelayNoiseResult r_boxed = analyze_delay_noise(eng_, boxed);
  EXPECT_LE(r_boxed.alignment.t_peak, *t20 + 1 * ps);
  // Constrained alignment cannot beat the unconstrained worst case.
  EXPECT_LE(r_boxed.delay_noise(), r_free.delay_noise() + 2 * ps);
}

// The model <-> alignment fix-point (DESIGN.md §1): each Rtr step is one
// area-match extraction at the current alignment, from the current
// holding R; model_alignment_iterations caps the steps.
DelayNoiseOptions coarse_options() {
  DelayNoiseOptions opts;
  opts.method = AlignmentMethod::Exhaustive;
  opts.search.coarse_points = 17;
  opts.search.fine_points = 9;
  opts.search.dt = 2 * ps;
  return opts;
}

TEST_F(DelayNoiseFixture, StepCapOfOneRunsExactlyOneRtrStep) {
  DelayNoiseOptions opts = coarse_options();
  opts.model_alignment_iterations = 1;
  obs::set_metrics_enabled(true);
  const obs::Counter& steps = obs::metrics().counter("rtr.iterations");
  const std::uint64_t before = steps.value();
  const DelayNoiseResult r = analyze_delay_noise(eng_, opts);
  const std::uint64_t taken = steps.value() - before;
  obs::set_metrics_enabled(false);
  EXPECT_EQ(r.rtr_iterations, 1);
  EXPECT_EQ(taken, 1u);
  EXPECT_NE(r.holding_r, r.rth);
}

TEST(DelayNoiseFixPoint, SmallFirstStepStopsTheDefaultFixPoint) {
  // A net whose first Rtr step (from Rth) moves R by less than kRtrRelTol:
  // the default cap of 2 must stop after that one step and report exactly
  // what a cap of 1 reports.
  Rng rng(3);
  for (int i = 0; i < 12; ++i) {
    const CoupledNet net = random_coupled_net(rng);
    SuperpositionEngine eng(net);
    DelayNoiseOptions one = coarse_options();
    one.model_alignment_iterations = 1;
    const DelayNoiseResult r1 = analyze_delay_noise(eng, one);
    if (!(std::abs(r1.holding_r - r1.rth) < kRtrRelTol * r1.rth)) continue;
    const DelayNoiseOptions defaults = coarse_options();
    ASSERT_EQ(defaults.model_alignment_iterations, 2);
    const DelayNoiseResult r = analyze_delay_noise(eng, defaults);
    EXPECT_EQ(r.rtr_iterations, 1) << "net " << i;
    EXPECT_EQ(r.holding_r, r1.holding_r) << "net " << i;
    EXPECT_EQ(r.delay_noise(), r1.delay_noise()) << "net " << i;
    return;
  }
  FAIL() << "no net in the draw has a first Rtr step under kRtrRelTol";
}

TEST(DelayNoiseValidation, NoAggressorsRejected) {
  CoupledNet net = example_coupled_net(1);
  net.aggressors.clear();
  net.couplings.clear();
  SuperpositionEngine eng(net);
  EXPECT_THROW(analyze_delay_noise(eng, {}), std::invalid_argument);
}

TEST(GoldenValidation, WrongShiftCountRejected) {
  const CoupledNet net = example_coupled_net(2);
  EXPECT_THROW(golden_nonlinear(net, {0.0}, {}), std::invalid_argument);
}

TEST(AlignmentMethodNames, AreStable) {
  EXPECT_STREQ(alignment_method_name(AlignmentMethod::Predicted),
               "predicted(8pt)");
  EXPECT_STREQ(alignment_method_name(AlignmentMethod::Exhaustive),
               "exhaustive");
  EXPECT_STREQ(alignment_method_name(AlignmentMethod::ReceiverInputPeak),
               "receiver-input[5]");
}

}  // namespace
}  // namespace dn
