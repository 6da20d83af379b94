// Tests for the paper's extension features: quiet-victim holding
// resistance and functional noise.
#include <gtest/gtest.h>

#include "core/functional_noise.hpp"
#include "core/holding_resistance.hpp"
#include "rcnet/random_nets.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

TEST(QuietHolding, RailHoldingIsTriodeStrong) {
  GateParams inv;
  inv.type = GateType::Inverter;
  inv.size = 1.0;
  const double r_low = quiet_holding_resistance(inv, false, 60 * fF);
  const double r_high = quiet_holding_resistance(inv, true, 60 * fF);
  EXPECT_GT(r_low, 10.0);
  EXPECT_LT(r_low, 2000.0);
  EXPECT_GT(r_high, 10.0);
  EXPECT_LT(r_high, 3000.0);
  // NMOS (kp 170u) holds low harder than the PMOS (kp 60u, 2x width)
  // holds high.
  EXPECT_LT(r_low, r_high);
}

TEST(QuietHolding, StrongerDriverHoldsHarder) {
  GateParams x1, x4;
  x1.size = 1.0;
  x4.size = 4.0;
  EXPECT_GT(quiet_holding_resistance(x1, true, 60 * fF),
            2.0 * quiet_holding_resistance(x4, true, 60 * fF));
}

TEST(QuietHolding, InvalidCeffThrows) {
  GateParams inv;
  EXPECT_THROW(quiet_holding_resistance(inv, true, 0.0), std::invalid_argument);
}

TEST(FunctionalNoise, QuietVictimSurvivesModerateCoupling) {
  const CoupledNet net = example_coupled_net(1);
  SuperpositionEngine eng(net);
  const FunctionalNoiseResult r = analyze_functional_noise(eng);
  // Falling aggressor attacks the quiet-HIGH victim.
  EXPECT_TRUE(r.victim_quiet_high);
  // Quiet holding is stronger than the transition-average model.
  EXPECT_LT(r.holding_r, r.rth);
  EXPECT_GT(r.holding_r, 0.3 * r.rth);
  EXPECT_GT(r.input_peak, 0.01);
  EXPECT_GT(r.output_peak, 0.0);
  // The receiver filters a moderate pulse: no functional failure.
  EXPECT_FALSE(r.failure);
}

TEST(FunctionalNoise, MassiveCouplingFails) {
  CoupledNet net = example_coupled_net(1);
  for (auto& cc : net.couplings) cc.c *= 5.0;  // 200 fF of coupling.
  SuperpositionEngine eng(net);
  const FunctionalNoiseResult r = analyze_functional_noise(eng);
  EXPECT_TRUE(r.failure);
  EXPECT_GT(r.output_peak, 0.1);
}

TEST(FunctionalNoise, RisingAggressorsAttackQuietLow) {
  CoupledNet net = example_coupled_net(1);
  net.victim.output_rising = false;
  net.aggressors[0].output_rising = true;
  SuperpositionEngine eng(net);
  const FunctionalNoiseResult r = analyze_functional_noise(eng);
  EXPECT_FALSE(r.victim_quiet_high);
  EXPECT_GT(r.sink_noise.peak().value, 0.0);  // Upward pulse.
}

}  // namespace
}  // namespace dn
