// 8-point alignment pre-characterization tests (core/alignment_table.*).
#include "core/alignment_table.hpp"

#include <gtest/gtest.h>

#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

constexpr double kVdd = 1.8;

GateParams receiver_x2() {
  GateParams g;
  g.type = GateType::Inverter;
  g.size = 2.0;
  return g;
}

AlignmentTableSpec fast_spec() {
  AlignmentTableSpec s;
  s.search.coarse_points = 17;
  s.search.fine_points = 9;
  s.search.dt = 2 * ps;
  return s;
}

TEST(AlignmentTable, CharacterizeProducesSaneVoltages) {
  const AlignmentTable tbl =
      AlignmentTable::characterize(receiver_x2(), true, fast_spec());
  for (int si = 0; si < 2; ++si)
    for (int wi = 0; wi < 2; ++wi)
      for (int hi = 0; hi < 2; ++hi) {
        const double va = tbl.alignment_voltage(si, wi, hi);
        // Rising victim: worst alignment voltage in the upper part of the
        // transition. It may saturate AT the rail for fast slews with
        // narrow pulses (worst alignment just past the transition end).
        EXPECT_GT(va, 0.3 * kVdd) << si << wi << hi;
        EXPECT_LE(va, kVdd) << si << wi << hi;
      }
  EXPECT_THROW(tbl.alignment_voltage(2, 0, 0), std::out_of_range);
}

TEST(AlignmentTable, HigherPulseRaisesAlignmentVoltage) {
  // Per [5] intuition: worst peak position ~ Vdd/2 + Vn, so the alignment
  // voltage must grow with pulse height.
  const AlignmentTable tbl =
      AlignmentTable::characterize(receiver_x2(), true, fast_spec());
  for (int si = 0; si < 2; ++si)
    for (int wi = 0; wi < 2; ++wi)
      EXPECT_GT(tbl.alignment_voltage(si, wi, 1),
                tbl.alignment_voltage(si, wi, 0) - 0.05)
          << si << " " << wi;
}

TEST(AlignmentTable, PredictionMatchesExhaustiveOnCanonicalConditions) {
  // The predictor must land close to the exhaustive optimum for conditions
  // inside the characterized box (paper: within ~10%).
  const GateParams rcv = receiver_x2();
  const AlignmentTableSpec spec = fast_spec();
  const AlignmentTable tbl = AlignmentTable::characterize(rcv, true, spec);

  const struct {
    double slew, width, height;
  } cases[] = {
      {150 * ps, 100 * ps, 0.3},
      {300 * ps, 300 * ps, 0.5},
      {100 * ps, 200 * ps, 0.2},
  };
  for (const auto& c : cases) {
    const Pwl ramp = Pwl::ramp(2 * ns, c.slew, 0.0, kVdd);
    const Pwl pulse = triangle_pulse(-c.height * kVdd, c.width, 2 * ns);
    const AlignmentResult ex = exhaustive_worst_alignment(
        ramp, pulse, rcv, spec.min_load, true, spec.search);
    const double t_pred = tbl.predict_peak_time(ramp, measure_pulse(pulse));

    // Compare the resulting DELAYS (the paper's error metric), not the raw
    // times: flat plateaus make time comparisons meaningless.
    const Pwl noisy_pred = ramp + shift_pulse_peak_to(pulse, t_pred, nullptr);
    GateSim sim(rcv, spec.min_load);
    const double d_pred =
        evaluate_receiver(sim, noisy_pred, true, spec.search.dt).t_out_50;
    const double t_in50 = *ramp.crossing(kVdd / 2, true);
    const double extra_ex = ex.t_out_50 - t_in50;
    const double extra_pred = d_pred - t_in50;
    EXPECT_LE(d_pred, ex.t_out_50 + 1 * ps);  // Exhaustive is the ceiling.
    EXPECT_GT(extra_pred, 0.75 * extra_ex)
        << "slew=" << c.slew / ps << " w=" << c.width / ps
        << " h=" << c.height;
  }
}

TEST(AlignmentTable, FallingVictimCharacterizes) {
  const AlignmentTable tbl =
      AlignmentTable::characterize(receiver_x2(), false, fast_spec());
  for (int si = 0; si < 2; ++si)
    for (int wi = 0; wi < 2; ++wi)
      for (int hi = 0; hi < 2; ++hi) {
        const double va = tbl.alignment_voltage(si, wi, hi);
        EXPECT_GE(va, 0.0);  // May saturate at the low rail (see above).
        EXPECT_LT(va, 0.7 * kVdd);
      }
}

TEST(AlignmentTable, DegenerateSpecThrows) {
  AlignmentTableSpec s;
  s.slew_min = s.slew_max = 100 * ps;
  EXPECT_THROW(AlignmentTable::characterize(receiver_x2(), true, s),
               std::invalid_argument);
}

TEST(AlignmentTable, PredictionClampsOutOfRangeQueries) {
  const AlignmentTable tbl =
      AlignmentTable::characterize(receiver_x2(), true, fast_spec());
  const Pwl ramp = Pwl::ramp(2 * ns, 150 * ps, 0.0, kVdd);
  // A pulse far taller and wider than the characterized box must still
  // produce a finite prediction inside the waveform.
  PulseParams huge;
  huge.height = -1.6;
  huge.width = 2 * ns;
  huge.t_peak = 2 * ns;
  const double t = tbl.predict_peak_time(ramp, huge);
  EXPECT_GT(t, ramp.t_begin());
  EXPECT_LT(t, ramp.t_end());
}

}  // namespace
}  // namespace dn
