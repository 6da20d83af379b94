// Bus crosstalk scenario: a victim wire routed between two parallel
// aggressor wires in a bus (the classic layout the paper's introduction
// motivates — coupling capacitance dominates between long parallel runs).
//
// Uses the top-level NoiseAnalyzer (per-receiver alignment tables are
// characterized once, then shared across all victim positions), sweeps the
// victim's position-dependent coupling, and reports delay noise per lane.
//
// Usage: bus_crosstalk
#include <cstdio>
#include <iostream>

#include "clarinet/analyzer.hpp"
#include "rcnet/net.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace dn;
using namespace dn::units;

namespace {

/// A victim lane in an N-wire bus with both neighbors switching opposite.
/// `cc_per_side` is the total victim<->neighbor coupling per side.
CoupledNet bus_lane(double cc_per_side, double victim_slew) {
  CoupledNet cn;
  const int segs = 8;
  cn.victim.net = make_line(segs, 1500.0, 70 * fF);
  cn.victim.driver = {GateType::Inverter, 1.0, 1.8};
  cn.victim.input_slew = victim_slew;
  cn.victim.output_rising = true;
  cn.victim.receiver = {GateType::Inverter, 2.0, 1.8};
  cn.victim.receiver_load = 15 * fF;

  for (int side = 0; side < 2; ++side) {
    AggressorDesc agg;
    agg.net = make_line(segs, 1000.0, 60 * fF);
    agg.driver = {GateType::Inverter, 4.0, 1.8};
    agg.input_slew = 80 * ps;
    agg.output_rising = false;
    cn.aggressors.push_back(agg);
    for (int j = 1; j < segs; ++j)
      cn.couplings.push_back({side, j, j, cc_per_side / (segs - 1)});
  }
  cn.validate();
  return cn;
}

}  // namespace

int main() {
  std::printf("bus crosstalk: victim lane between two opposing aggressors\n\n");

  AnalyzerConfig cfg;
  NoiseAnalyzer analyzer(cfg);

  Table tbl({"cc_per_side_fF", "victim_slew_ps", "pulse_V", "pulse_ps",
             "Rth_ohm", "Rtr_ohm", "intercon_dN_ps", "combined_dN_ps"});
  for (double cc : {10 * fF, 25 * fF, 45 * fF}) {
    for (double slew : {120 * ps, 300 * ps}) {
      const CoupledNet lane = bus_lane(cc, slew);
      const DelayNoiseResult r = analyzer.try_analyze(lane).value();
      tbl.add_row_values({cc / fF, slew / ps, r.composite.params.height,
                          r.composite.params.width / ps, r.rth, r.holding_r,
                          r.input_delay_noise() / ps, r.delay_noise() / ps});
    }
  }
  tbl.print(std::cout);
  std::printf("\n(%zu alignment tables characterized and reused)\n",
              analyzer.cache()->tables_cached());

  // Detailed report for the worst lane configuration.
  const CoupledNet worst = bus_lane(45 * fF, 300 * ps);
  const DelayNoiseResult r = analyzer.try_analyze(worst).value();
  std::printf("\n");
  DelayNoiseReport::from(worst, r).to_text(std::cout);
  return 0;
}
