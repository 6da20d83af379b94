// Remaining coverage: mixed-direction functional noise, multi-lobe
// waveform measurements, algebraic waveform properties, and library cell
// names.
#include <gtest/gtest.h>

#include "core/functional_noise.hpp"
#include "devices/gate_library.hpp"
#include "rcnet/random_nets.hpp"
#include "util/units.hpp"
#include "waveform/pulse.hpp"

namespace dn {
namespace {

using namespace dn::units;

TEST(FunctionalNoiseMixed, MajorityDirectionDecidesQuietState) {
  // Two falling aggressors, one rising: the falling majority attacks the
  // quiet-HIGH victim.
  CoupledNet net = example_coupled_net(3);
  net.aggressors[0].output_rising = false;
  net.aggressors[1].output_rising = false;
  net.aggressors[2].output_rising = true;
  SuperpositionEngine eng(net);
  const FunctionalNoiseResult r = analyze_functional_noise(eng);
  EXPECT_TRUE(r.victim_quiet_high);
}

TEST(WaveformMultiLobe, WidthUsesTheTallestLobe) {
  // Two triangles, second twice as tall: FWHM must measure the tall one.
  const Pwl two = triangle_pulse(0.2, 100 * ps, 1 * ns) +
                  triangle_pulse(0.5, 60 * ps, 2 * ns);
  const PulseParams p = measure_pulse(two);
  EXPECT_NEAR(p.height, 0.5, 1e-9);
  EXPECT_NEAR(p.t_peak, 2 * ns, 1 * ps);
  EXPECT_NEAR(p.width, 60 * ps, 5 * ps);
}

TEST(WaveformMultiLobe, LastCrossingWithDirectionFilter) {
  const Pwl w({0, 1, 2, 3, 4, 5}, {0, 1, 0.2, 0.8, 0.1, 0.9});
  const auto last_up = w.last_crossing(0.5, true);
  ASSERT_TRUE(last_up.has_value());
  EXPECT_GT(*last_up, 4.0);  // The final rise.
  const auto last_down = w.last_crossing(0.5, false);
  ASSERT_TRUE(last_down.has_value());
  EXPECT_GT(*last_down, 3.0);
  EXPECT_LT(*last_down, 4.0);
}

TEST(WaveformAlgebra, AdditionIsAssociativeOnMergedGrids) {
  const Pwl a = Pwl::ramp(0.0, 1 * ns, 0.0, 1.0);
  const Pwl b = triangle_pulse(-0.3, 200 * ps, 0.5 * ns);
  const Pwl c = triangle_pulse(0.15, 100 * ps, 0.8 * ns);
  const Pwl left = (a + b) + c;
  const Pwl right = a + (b + c);
  for (double t = 0; t <= 1.5 * ns; t += 37 * ps)
    EXPECT_NEAR(left.at(t), right.at(t), 1e-12) << t;
}

TEST(WaveformAlgebra, ScaledShiftCommute) {
  const Pwl p = triangle_pulse(0.4, 150 * ps, 1 * ns);
  const Pwl x = p.scaled(2.0).shifted(100 * ps);
  const Pwl y = p.shifted(100 * ps).scaled(2.0);
  for (double t = 0.5 * ns; t <= 1.8 * ns; t += 50 * ps)
    EXPECT_NEAR(x.at(t), y.at(t), 1e-12);
}

TEST(GateLibraryNames, AllCellsResolve) {
  const GateLibrary lib = GateLibrary::standard();
  for (const auto& name : lib.names()) {
    const GateParams& g = lib.cell(name);
    EXPECT_GT(g.size, 0.0) << name;
    EXPECT_GT(g.input_cap(), 0.0) << name;
  }
}

}  // namespace
}  // namespace dn
