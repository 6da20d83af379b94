// Figure 2: the standard Thevenin holding resistance significantly
// underestimates the noise injected on a SWITCHING victim.
//
// Reproduces the paper's waveform comparison: noise is injected while the
// victim driver is mid-transition (its pull-up still saturated, i.e. its
// instantaneous output conductance far below the transition-average 1/Rth).
// Series printed: the victim-driver-output noise pulse from (a) the linear
// simulation with the Thevenin holding resistance and (b) the nonlinear
// driver simulation (V'n = V2 - V1, the paper's construction), plus the
// noisy victim transition both ways.
#include <iostream>
#include "bench_util.hpp"
#include "core/composite_pulse.hpp"
#include "core/holding_resistance.hpp"
#include "devices/gate.hpp"

using namespace dn;
using namespace dn::bench;
using namespace dn::units;

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  print_header(
      "Figure 2 - noise on a switching victim: Thevenin model vs nonlinear",
      "Thevenin-held noise pulse is much smaller than the true (nonlinear) "
      "pulse when injection lands mid-transition");

  // The Fig 2 setup: weak slow victim, strong fast aggressor, injection
  // while the victim transition is in its weak (saturated pull-up) phase.
  CoupledNet net = example_coupled_net(1);
  net.victim.input_slew = 400 * ps;
  net.aggressors[0].input_slew = 50 * ps;

  SuperpositionEngine eng(net);
  const double rth = eng.victim_model().model.rth;
  const auto& vt = eng.victim_transition();

  // Align the composite noise peak where the noiseless sink crosses 30% of
  // Vdd - squarely in the weak-holding window.
  const double target_v = 0.3 * eng.vdd();
  const double t_tgt = *vt.at_sink.crossing(target_v, true);
  CompositeAlignment comp = align_aggressor_peaks(eng, rth);
  std::vector<double> shifts = comp.shifts;
  for (double& s : shifts) s += t_tgt - comp.params.t_peak;

  // One Rtr step from Rth provides exactly the Fig 2 pieces: vn_linear
  // (Thevenin-held) and vn_nonlinear (V'n = V2 - V1).
  const RtrResult r = compute_rtr(eng, shifts, rth);

  const PulseParams p_lin = measure_pulse(r.vn_linear);
  const PulseParams p_nl = measure_pulse(r.vn_nonlinear);

  std::printf("victim driver Rth = %.0f Ohm (Ceff = %.2f fF)\n", rth,
              eng.victim_model().ceff / fF);
  std::printf("noise pulse at the victim driver output:\n");
  std::printf("  Thevenin-held linear : peak %7.4f V, width %6.1f ps, area %.3g V*s\n",
              p_lin.height, p_lin.width / ps, r.vn_linear.integral());
  std::printf("  nonlinear (V'n)      : peak %7.4f V, width %6.1f ps, area %.3g V*s\n",
              p_nl.height, p_nl.width / ps, r.vn_nonlinear.integral());
  const double under_pct =
      100.0 * (1.0 - std::abs(p_lin.height / p_nl.height));
  std::printf("  -> Thevenin underestimates the peak by %.1f%%\n\n", under_pct);

  // Waveform series (Fig 2's curves), CSV for plotting.
  Table tbl({"t_ps", "victim_noiseless_V", "noisy_thevenin_V",
             "noisy_nonlinear_V", "noise_thevenin_V", "noise_nonlinear_V"});
  const Pwl v_thev_noisy = vt.at_root + r.vn_linear;
  // V2 = V1 + V'n, and V1 is the nonlinear noiseless driver response into
  // Ceff; show the superposed transition at the driver output.
  for (double t = 0; t <= 2.0 * ns; t += 25 * ps) {
    tbl.add_row_values({t / ps, vt.at_root.at(t), v_thev_noisy.at(t),
                        vt.at_root.at(t) + r.vn_nonlinear.at(t),
                        r.vn_linear.at(t), r.vn_nonlinear.at(t)});
  }
  tbl.print(std::cout);
  std::printf("\nCSV:\n");
  tbl.print_csv(std::cout);
  std::printf("\n");

  bool ok = true;
  ok &= check("nonlinear noise pulse exceeds the Thevenin-held one by >25%",
              std::abs(p_nl.height) > 1.25 * std::abs(p_lin.height));
  ok &= check("both pulses oppose the rising victim (negative)",
              p_nl.height < 0 && p_lin.height < 0);
  return ok ? 0 : 1;
}
