#include "core/functional_noise.hpp"

#include <cmath>

#include "core/composite_pulse.hpp"
#include "core/holding_resistance.hpp"

namespace dn {

FunctionalNoiseResult analyze_functional_noise(
    const SuperpositionEngine& eng, const FunctionalNoiseOptions& opts) {
  const CoupledNet& net = eng.net();
  if (net.aggressors.empty())
    throw std::invalid_argument("analyze_functional_noise: no aggressors");

  // Which quiet state is attacked: falling aggressors pull a high victim
  // down toward the receiver threshold; rising aggressors push a low one up.
  int falling = 0;
  for (const auto& a : net.aggressors)
    if (!a.output_rising) ++falling;
  const bool quiet_high = 2 * falling >= static_cast<int>(net.aggressors.size());

  FunctionalNoiseResult out;
  out.victim_quiet_high = quiet_high;
  out.rth = eng.victim_model().model.rth;
  out.holding_r = quiet_holding_resistance(net.victim.driver, quiet_high,
                                           eng.victim_model().ceff);

  // Worst case for a static victim: peaks coincident (no victim transition
  // to align against; maximum pulse height governs).
  const CompositeAlignment comp = align_aggressor_peaks(eng, out.holding_r);
  out.sink_noise = comp.at_sink;
  out.input_peak = std::abs(comp.params.height);

  // Receiver response: quiet input rail plus the noise.
  const double vdd = eng.vdd();
  const double quiet_level = quiet_high ? vdd : 0.0;
  const double horizon = eng.options().horizon;
  const Pwl vin = Pwl::constant(quiet_level, 0.0, horizon) + comp.at_sink;
  GateSim rcv(net.victim.receiver, net.victim.receiver_load);
  auto run = rcv.try_run(vin, {0.0, horizon, eng.options().dt});
  if (!run.ok()) raise(run.status());
  const Pwl vout = std::move(run).value();
  out.receiver_output = vout;
  const double out_quiet = vout.values().front();
  out.output_peak = std::max(std::abs(vout.max_value() - out_quiet),
                             std::abs(vout.min_value() - out_quiet));
  out.failure = out.output_peak > opts.margin;
  return out;
}

}  // namespace dn
