#include "core/baselines.hpp"

#include <stdexcept>

#include "sim/nonlinear_sim.hpp"

namespace dn {

namespace {

struct GoldenProbes {
  NodeId sink = kGround;
  NodeId rcv_out = kGround;
};

/// Builds the full transistor-level coupled circuit. When `quiet` is true,
/// aggressor inputs are held at their initial level (nominal run).
Circuit build_full(const CoupledNet& net, const std::vector<double>& shifts,
                   const SuperpositionOptions& opts, bool quiet,
                   GoldenProbes* probes) {
  Circuit ckt;
  const NodeId vdd = add_vdd(ckt, net.victim.driver.vdd);

  // Victim driver + net + receiver.
  const Pwl vic_in =
      driver_input_ramp(net.victim.driver, net.victim.input_slew,
                        net.victim.output_rising, kInputRampStart);
  const NodeId vin = ckt.node("vic_in");
  ckt.add_vsource(vin, kGround, vic_in);
  const auto vmap = net.victim.net.instantiate(ckt, "v");
  instantiate_gate(ckt, net.victim.driver, vin, vmap[0], vdd);

  const NodeId sink = vmap[static_cast<std::size_t>(net.victim.net.sink)];
  const NodeId rcv_out = ckt.node("rcv_out");
  instantiate_gate(ckt, net.victim.receiver, sink, rcv_out, vdd);
  if (net.victim.receiver_load > 0)
    ckt.add_capacitor(rcv_out, kGround, net.victim.receiver_load);

  // Aggressors.
  std::vector<std::vector<NodeId>> amaps;
  for (std::size_t k = 0; k < net.aggressors.size(); ++k) {
    const auto& agg = net.aggressors[k];
    const Pwl ramp = driver_input_ramp(agg.driver, agg.input_slew,
                                       agg.output_rising, kInputRampStart)
                         .shifted(shifts[k]);
    const Pwl ain_wave =
        quiet ? Pwl::constant(ramp.values().front(), 0.0, opts.horizon) : ramp;
    const NodeId ain = ckt.node("agg_in" + std::to_string(k));
    ckt.add_vsource(ain, kGround, ain_wave);
    const auto amap = agg.net.instantiate(ckt, "a" + std::to_string(k) + "_");
    instantiate_gate(ckt, agg.driver, ain, amap[0], vdd);
    if (agg.sink_load > 0)
      ckt.add_capacitor(amap[static_cast<std::size_t>(agg.net.sink)], kGround,
                        agg.sink_load);
    amaps.push_back(amap);
  }
  for (const auto& cc : net.couplings) {
    const auto& amap = amaps[static_cast<std::size_t>(cc.aggressor)];
    ckt.add_capacitor(amap[static_cast<std::size_t>(cc.aggressor_node)],
                      vmap[static_cast<std::size_t>(cc.victim_node)], cc.c);
  }

  if (probes) {
    probes->sink = sink;
    probes->rcv_out = rcv_out;
  }
  return ckt;
}

}  // namespace

GoldenResult golden_nonlinear(const CoupledNet& net,
                              const std::vector<double>& shifts,
                              const SuperpositionOptions& opts) {
  net.validate();
  if (shifts.size() != net.aggressors.size())
    throw std::invalid_argument("golden_nonlinear: wrong shift count");

  const bool rising = net.victim.output_rising;
  const bool out_rising =
      gate_inverts(net.victim.receiver.type) ? !rising : rising;
  const double mid = 0.5 * net.victim.driver.vdd;
  TransientSpec spec{0.0, opts.horizon, opts.dt};
  spec.lte_tol = opts.lte_tol;
  spec.max_dt_growth = opts.max_dt_growth;

  GoldenResult out;
  for (const bool quiet : {true, false}) {
    GoldenProbes probes;
    const Circuit ckt = build_full(net, shifts, opts, quiet, &probes);
    NewtonOptions newton = opts.newton;
    newton.solver = opts.solver;
    NonlinearSim sim(ckt, newton);
    const auto res = sim.try_run(spec);
    if (!res.ok()) raise(res.status());
    const Pwl sink = res->waveform(probes.sink);
    const Pwl rout = res->waveform(probes.rcv_out);
    const auto t_in = sink.last_crossing(mid, rising);
    const auto t_out = rout.last_crossing(mid, out_rising);
    if (!t_in || !t_out)
      throw std::runtime_error(
          "golden_nonlinear: transition did not complete within the horizon");
    if (quiet) {
      out.nominal_input_t50 = *t_in;
      out.nominal_t50 = *t_out;
      out.noiseless_sink = sink;
      out.receiver_out_nominal = rout;
    } else {
      out.noisy_input_t50 = *t_in;
      out.noisy_t50 = *t_out;
      out.noisy_sink = sink;
      out.receiver_out_noisy = rout;
    }
  }
  return out;
}

}  // namespace dn
