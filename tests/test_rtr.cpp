// Transient holding resistance tests (core/holding_resistance.*).
//
// The load-bearing physics: a CMOS driver's small-signal output
// conductance dips (saturated pull device) mid-transition and is strong
// (triode) near the rails. Rtr must therefore EXCEED Rth when the noise
// lands early in the transition and fall at/below Rth when it lands late.
#include "core/holding_resistance.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/composite_pulse.hpp"
#include "devices/gate.hpp"
#include "rcnet/random_nets.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

CoupledNet slow_victim_net() {
  CoupledNet net = example_coupled_net(1);
  net.victim.input_slew = 400 * ps;
  net.aggressors[0].input_slew = 50 * ps;
  return net;
}

/// Shifts that place the composite peak at time `t`.
std::vector<double> shifts_for_time(const SuperpositionEngine& eng, double t) {
  auto comp = align_aggressor_peaks(eng, eng.victim_model().model.rth);
  std::vector<double> shifts = comp.shifts;
  for (double& s : shifts) s += t - comp.params.t_peak;
  return shifts;
}

/// Shifts that place the composite peak where the noiseless SINK waveform
/// crosses `level` in the victim's direction.
std::vector<double> shifts_for_level(const SuperpositionEngine& eng,
                                     double level, bool rising = true) {
  const auto t_tgt = eng.victim_transition().at_sink.crossing(level, rising);
  EXPECT_TRUE(t_tgt.has_value());
  return shifts_for_time(eng, t_tgt.value_or(0.0));
}

/// One Rtr step from the victim's Thevenin resistance.
RtrResult step_from_rth(const SuperpositionEngine& eng,
                        const std::vector<double>& shifts) {
  return compute_rtr(eng, shifts, eng.victim_model().model.rth);
}

TEST(Differentiate, RampSlope) {
  // Ramp to 1.0 over [0, 1ns], then flat until 2ns.
  const Pwl r({0.0, 1 * ns, 2 * ns}, {0.0, 1.0, 1.0});
  const Pwl d = differentiate(r, 1 * ps);
  EXPECT_NEAR(d.at(0.5 * ns), 1.0 / (1 * ns), 1e6);  // 1e9 1/s, 0.1% tol.
  EXPECT_NEAR(d.at(1.5 * ns), 0.0, 1e6);
}

TEST(Differentiate, EmptyAndConstant) {
  EXPECT_TRUE(differentiate(Pwl{}, 1e-12).empty());
  const Pwl c = Pwl::constant(2.0, 0.0, 1e-9);
  const Pwl d = differentiate(c, 1e-12);
  EXPECT_NEAR(d.max_value(), 0.0, 1e-9);
}

TEST(Rtr, EarlyInjectionRaisesHoldingResistance) {
  const CoupledNet net = slow_victim_net();
  SuperpositionEngine eng(net);
  const double rth = eng.victim_model().model.rth;

  // Pulse peak when the sink is at ~17% of the swing: the victim pull-up
  // is still saturated -> conductance low -> Rtr must exceed Rth clearly.
  const RtrResult early = step_from_rth(eng, shifts_for_level(eng, 0.3));
  EXPECT_GT(early.rtr, 1.25 * rth);
  EXPECT_DOUBLE_EQ(early.rth, rth);

  // Pulse peak at ~72% of the swing: pull-up in triode -> Rtr near/below Rth.
  const RtrResult late = step_from_rth(eng, shifts_for_level(eng, 1.3));
  EXPECT_LT(late.rtr, 1.1 * rth);
  EXPECT_GT(early.rtr, late.rtr);
}

TEST(Rtr, DiagnosticWaveformsArePopulated) {
  const CoupledNet net = slow_victim_net();
  SuperpositionEngine eng(net);
  const RtrResult r = step_from_rth(eng, shifts_for_level(eng, 0.9));
  EXPECT_FALSE(r.vn_linear.empty());
  EXPECT_FALSE(r.in_current.empty());
  EXPECT_FALSE(r.vn_nonlinear.empty());
  // The linear and nonlinear noise pulses point the same way (negative for
  // a falling aggressor on a rising victim).
  EXPECT_LT(r.vn_linear.peak().value, 0.0);
  EXPECT_LT(r.vn_nonlinear.peak().value, 0.0);
}

TEST(Rtr, ConvergesWithinBudget) {
  // The paper reports one or two iterations in practice: at a fixed
  // alignment, a second step from the first step's Rtr moves R by less
  // than the tolerance at which the fix-point stops.
  const CoupledNet net = slow_victim_net();
  SuperpositionEngine eng(net);
  const std::vector<double> shifts = shifts_for_level(eng, 0.9);
  const RtrResult r1 = step_from_rth(eng, shifts);
  const RtrResult r2 = compute_rtr(eng, shifts, r1.rtr);
  for (const RtrResult* r : {&r1, &r2}) {
    EXPECT_GE(r->rtr, kRtrMin);
    EXPECT_LE(r->rtr, kRtrMax);
  }
  EXPECT_LT(std::abs(r2.rtr - r1.rtr), kRtrRelTol * r1.rtr);
}

// Paired driver sim (DESIGN.md §5): V1 and V2 are two copies of the
// victim driver in one transient, so both step on one grid. The reference
// below is the extraction rebuilt from two standalone fixed-grid
// single-copy GateSims, V2 with the injection source: one area-matching
// pass for the injected current `in`, both integrals over [0, horizon].
double two_gate_sim_rtr(const SuperpositionEngine& eng, const Pwl& in) {
  const double horizon = eng.options().horizon;
  TransientSpec spec{0.0, horizon, eng.options().dt};
  spec.stale_jacobian_iters = eng.options().newton.stale_jacobian_iters;
  const GateParams& driver = eng.net().victim.driver;
  const double cload = eng.victim_model().ceff;
  GateSim plain(driver, cload);
  GateSim injected(driver, cload, GateSim::Kind::kInjected);
  const Pwl v1 = plain.try_run(eng.victim_input(), spec).value();
  const Pwl v2 =
      injected.try_run(eng.victim_input(), spec, nullptr, &in).value();
  return (v2 - v1).integral() / in.clipped(0.0, horizon).integral();
}

SuperpositionOptions fixed_grid() {
  SuperpositionOptions so;
  so.lte_tol = 0.0;  // Every engine sim, the Rtr driver sims included.
  return so;
}

/// Index of the last knot of `in` before its first nonzero value.
std::size_t last_zero_knot(const Pwl& in) {
  std::size_t j = 0;
  while (j < in.size() && in.values()[j] == 0.0) ++j;
  EXPECT_GT(j, 0u);
  return j - 1;
}

/// Where a paired-sim case puts the composite peak.
enum class Peak { kHalfSwing, kNearTimeZero, kPastHorizon };

struct PairedCase {
  std::string name;
  CoupledNet net;
  Peak peak = Peak::kHalfSwing;
};

/// slow_victim_net and five seeded random nets with the peak at the
/// victim's 50% crossing.
std::vector<PairedCase> half_swing_cases() {
  std::vector<PairedCase> cases;
  cases.push_back({"slow victim", slow_victim_net(), Peak::kHalfSwing});
  Rng rng(11);
  for (int i = 0; i < 5; ++i)
    cases.push_back({"random net " + std::to_string(i), random_coupled_net(rng),
                     Peak::kHalfSwing});
  return cases;
}

PairedCase onset_at_time_zero() {
  return {"onset at t = 0", slow_victim_net(), Peak::kNearTimeZero};
}

PairedCase past_the_horizon() {
  return {"past the horizon", slow_victim_net(), Peak::kPastHorizon};
}

/// The half-swing cases plus noise already flowing at t = 0 and noise
/// still flowing at the horizon.
std::vector<PairedCase> paired_cases() {
  std::vector<PairedCase> cases = half_swing_cases();
  cases.push_back(onset_at_time_zero());
  cases.push_back(past_the_horizon());
  return cases;
}

std::vector<double> shifts_for(const SuperpositionEngine& eng, Peak peak) {
  switch (peak) {
    case Peak::kHalfSwing:
      return shifts_for_level(eng, 0.5 * eng.vdd(),
                              eng.net().victim.output_rising);
    case Peak::kNearTimeZero:
      return shifts_for_time(eng, 60 * ps);
    case Peak::kPastHorizon:
      return shifts_for_time(eng, eng.options().horizon - 100 * ps);
  }
  return {};
}

/// One Rtr step of `c` with engine lte_tol 0, checked against the
/// two-gate-sim reference.
RtrResult expect_fixed_grid_matches_reference(const PairedCase& c) {
  SCOPED_TRACE(c.name);
  SuperpositionEngine eng(c.net, fixed_grid());
  const double horizon = eng.options().horizon;
  const RtrResult r = step_from_rth(eng, shifts_for(eng, c.peak));
  // lte_tol 0: the paired sim runs on the fixed dt grid.
  EXPECT_EQ(r.vn_nonlinear.size(),
            static_cast<std::size_t>(std::lround(horizon / eng.options().dt)) +
                1);
  EXPECT_NEAR(r.rtr / two_gate_sim_rtr(eng, r.in_current), 1.0, 1e-3);
  return r;
}

TEST(RtrPaired, NonlinearNoiseIsExactlyZeroBeforeOnset) {
  // Until In turns on, the two driver copies follow identical arithmetic.
  const CoupledNet net = slow_victim_net();
  SuperpositionEngine eng(net);
  const RtrResult r = step_from_rth(eng, shifts_for_level(eng, 0.9));
  const double t_onset = r.in_current.times()[last_zero_knot(r.in_current)];
  ASSERT_GT(t_onset, 0.0);
  const auto ts = r.vn_nonlinear.times();
  const auto vs = r.vn_nonlinear.values();
  std::size_t before = 0;
  for (std::size_t k = 0; k < ts.size() && ts[k] <= t_onset; ++k, ++before)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(vs[k]), 0u) << "t=" << ts[k];
  EXPECT_GT(before, 10u);
  ASSERT_LT(before, vs.size());
  EXPECT_NE(vs[before], 0.0);  // The first sample after onset.
}

// The RtrWindow tests hold the paired sim on the fixed grid to the
// full-horizon two-gate-sim reference, one test per peak placement.
TEST(RtrWindow, MatchesFullHorizonReference) {
  for (const PairedCase& c : half_swing_cases())
    expect_fixed_grid_matches_reference(c);
}

TEST(RtrWindow, OnsetAtTimeZeroFallsBackToDcSolvedV2) {
  // Composite peak 60 ps into the run: the injected current is already
  // flowing at t = 0, so the DC solve gives copy 2 its own operating point.
  const RtrResult r = expect_fixed_grid_matches_reference(onset_at_time_zero());
  ASSERT_NE(r.in_current.at(0.0), 0.0);
  EXPECT_NE(r.vn_nonlinear.values().front(), 0.0);  // Not V1's DC state.
}

TEST(RtrWindow, NoiseAboveTheCutAtTheHorizonRunsV2ToTheHorizon) {
  // Both integrals stop at the horizon, where the paired sim stops.
  const RtrResult r = expect_fixed_grid_matches_reference(past_the_horizon());
  ASSERT_GT(r.in_current.t_end(), SuperpositionOptions{}.horizon);
  EXPECT_NE(r.vn_nonlinear.values().back(), 0.0);  // V2's own last sample.
}

TEST(RtrPaired, AdaptiveMatchesFixedGrid) {
  // Same shifts on both engines; the adaptive run (default lte_tol, for
  // the linear noise sims and the driver sims alike) stays an order
  // inside the tolerance the fix-point iteration accepts.
  for (const PairedCase& c : paired_cases()) {
    SCOPED_TRACE(c.name);
    SuperpositionEngine fixed(c.net, fixed_grid());
    SuperpositionEngine adaptive(c.net);
    ASSERT_GT(adaptive.options().lte_tol, 0.0);
    const std::vector<double> shifts = shifts_for(fixed, c.peak);
    const RtrResult r0 = step_from_rth(fixed, shifts);
    const RtrResult r = step_from_rth(adaptive, shifts);
    EXPECT_NEAR(r.rtr / r0.rtr, 1.0, kRtrRelTol / 10);
    EXPECT_LT(r.vn_nonlinear.size(), r0.vn_nonlinear.size());
  }
}

TEST(Rtr, NoCouplingMeansNoCorrection) {
  // With negligible coupling, the injected current is ~0 and Rtr falls
  // back to Rth instead of producing garbage.
  CoupledNet net = example_coupled_net(1);
  for (auto& cc : net.couplings) cc.c = 1e-20;
  SuperpositionEngine eng(net);
  const RtrResult r = step_from_rth(eng, shifts_for_level(eng, 0.9));
  EXPECT_NEAR(r.rtr, r.rth, 0.25 * r.rth);
}

// Alignment-position sweep: Rtr must decrease monotonically (within noise)
// as the injection moves from the early to the late part of the victim
// transition — the core claim that holding is alignment-dependent.
class RtrAlignmentSweep : public ::testing::TestWithParam<double> {};

TEST_P(RtrAlignmentSweep, RtrIsFiniteAndBracketed) {
  const CoupledNet net = slow_victim_net();
  SuperpositionEngine eng(net);
  const double rth = eng.victim_model().model.rth;
  const RtrResult r = step_from_rth(eng, shifts_for_level(eng, GetParam()));
  EXPECT_GT(r.rtr, 0.3 * rth);
  EXPECT_LT(r.rtr, 4.0 * rth);
}

INSTANTIATE_TEST_SUITE_P(Levels, RtrAlignmentSweep,
                         ::testing::Values(0.3, 0.6, 0.9, 1.2, 1.45));

}  // namespace
}  // namespace dn
