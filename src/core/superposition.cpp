#include "core/superposition.hpp"

#include <stdexcept>
#include <string>

#include "sim/linear_sim.hpp"
#include "util/trace.hpp"

namespace dn {

namespace {

/// Grounded-cap view of the couplings for one net's Ceff computation.
std::vector<std::pair<int, double>> grounded_couplings_for_victim(
    const CoupledNet& net) {
  std::vector<std::pair<int, double>> out;
  for (const auto& cc : net.couplings) out.emplace_back(cc.victim_node, cc.c);
  return out;
}

std::vector<std::pair<int, double>> grounded_couplings_for_aggressor(
    const CoupledNet& net, int k) {
  std::vector<std::pair<int, double>> out;
  for (const auto& cc : net.couplings)
    if (cc.aggressor == k) out.emplace_back(cc.aggressor_node, cc.c);
  return out;
}

}  // namespace

SuperpositionEngine::SuperpositionEngine(const CoupledNet& net,
                                         SuperpositionOptions opts)
    : net_(net), opts_(opts) {
  net_.validate();

  // Every driver's Ceff iteration runs its linear sims on the engine's
  // solver and LTE bound, and reads the driver tables characterized at
  // the engine's LTE bound and chord-Newton budget.
  CeffOptions ceff;
  ceff.solver = opts_.solver;
  ceff.fit.lte_tol = opts_.lte_tol;
  ceff.fit.stale_jacobian_iters = opts_.newton.stale_jacobian_iters;

  // Victim driver: Ceff + Thevenin with coupling caps grounded.
  victim_model_ = compute_ceff(
      net_.victim.driver, net_.victim.input_slew, net_.victim.output_rising,
      kInputRampStart, net_.victim.net, grounded_couplings_for_victim(net_),
      net_.victim.receiver.input_cap(), ceff);

  aggressor_models_.reserve(net_.aggressors.size());
  for (std::size_t k = 0; k < net_.aggressors.size(); ++k) {
    const auto& agg = net_.aggressors[k];
    aggressor_models_.push_back(compute_ceff(
        agg.driver, agg.input_slew, agg.output_rising, kInputRampStart, agg.net,
        grounded_couplings_for_aggressor(net_, static_cast<int>(k)),
        agg.sink_load, ceff));
  }
}

const CeffResult& SuperpositionEngine::aggressor_model(int k) const {
  if (k < 0 || static_cast<std::size_t>(k) >= aggressor_models_.size())
    throw std::out_of_range("SuperpositionEngine: bad aggressor index");
  return aggressor_models_[static_cast<std::size_t>(k)];
}

Pwl SuperpositionEngine::victim_input() const {
  return driver_input_ramp(net_.victim.driver, net_.victim.input_slew,
                           net_.victim.output_rising, kInputRampStart);
}

SuperpositionEngine::Waveforms SuperpositionEngine::run_linear(
    int switching, double victim_holding_r) const {
  obs::TraceSpan span("superposition.linear", "analyze");
  // The switching driver is its Thevenin source behind its Rth; every held
  // driver is a resistance to ground. A held driver is more than a
  // resistance, though: its drain junctions and gate-drain overlap still
  // load the net. The full nonlinear circuit has these automatically; the
  // linear model must add them explicitly or it systematically
  // underestimates how slowly noise decays on small nets.
  Circuit ckt;
  const auto vmap = net_.victim.net.instantiate(ckt, "v");
  if (switching < 0) {
    const TheveninModel& m = victim_model_.model;
    const NodeId src = ckt.node("vic_src");
    ckt.add_vsource(src, kGround, m.source(opts_.horizon));
    ckt.add_resistor(src, vmap[0], m.rth);
  } else {
    ckt.add_resistor(vmap[0], kGround, victim_holding_r);
    ckt.add_capacitor(vmap[0], kGround,
                      net_.victim.driver.output_parasitic_cap());
  }
  ckt.add_capacitor(vmap[static_cast<std::size_t>(net_.victim.net.sink)],
                    kGround, net_.victim.receiver.input_cap());

  std::vector<std::vector<NodeId>> amaps;
  for (std::size_t j = 0; j < net_.aggressors.size(); ++j) {
    const auto& agg = net_.aggressors[j];
    const auto amap = agg.net.instantiate(ckt, "a" + std::to_string(j) + "_");
    if (agg.sink_load > 0)
      ckt.add_capacitor(amap[static_cast<std::size_t>(agg.net.sink)], kGround,
                        agg.sink_load);
    const TheveninModel& m = aggressor_models_[j].model;
    if (static_cast<int>(j) == switching) {
      // Noise domain: all quiet levels are 0 and the switching aggressor's
      // source swings 0 -> +/-vdd (same timing and rth).
      TheveninModel noise_src = m;
      noise_src.v_from = 0.0;
      noise_src.v_to = agg.output_rising ? agg.driver.vdd : -agg.driver.vdd;
      const NodeId src = ckt.node("agg_src");
      ckt.add_vsource(src, kGround, noise_src.source(opts_.horizon));
      ckt.add_resistor(src, amap[0], m.rth);
    } else {
      ckt.add_capacitor(amap[0], kGround, agg.driver.output_parasitic_cap());
      ckt.add_resistor(amap[0], kGround, m.rth);
    }
    amaps.push_back(amap);
  }
  for (const auto& cc : net_.couplings) {
    const auto& amap = amaps[static_cast<std::size_t>(cc.aggressor)];
    ckt.add_capacitor(amap[static_cast<std::size_t>(cc.aggressor_node)],
                      vmap[static_cast<std::size_t>(cc.victim_node)], cc.c);
  }

  LinearSim sim(ckt, opts_.solver);
  const auto res = sim.try_run(transient_spec());
  if (!res.ok()) raise(res.status());
  Waveforms w;
  w.at_root = res->waveform(vmap[0]);
  w.at_sink =
      res->waveform(vmap[static_cast<std::size_t>(net_.victim.net.sink)]);
  return w;
}

const SuperpositionEngine::Waveforms& SuperpositionEngine::aggressor_noise(
    int k, double victim_holding_r) const {
  if (k < 0 || static_cast<std::size_t>(k) >= net_.aggressors.size())
    throw std::out_of_range("aggressor_noise: bad aggressor index");
  if (victim_holding_r <= 0)
    throw std::invalid_argument("aggressor_noise: holding R must be > 0");
  const auto key = std::make_pair(k, victim_holding_r);
  const auto it = noise_cache_.find(key);
  if (it != noise_cache_.end()) return it->second;
  return noise_cache_.emplace(key, run_linear(k, victim_holding_r))
      .first->second;
}

const SuperpositionEngine::Waveforms& SuperpositionEngine::victim_transition()
    const {
  if (!victim_cache_) victim_cache_ = run_linear(-1, 0.0);
  return *victim_cache_;
}

Pwl SuperpositionEngine::composite_noise_at_sink(
    const std::vector<double>& shifts, double victim_holding_r) const {
  return composite_noise(shifts, victim_holding_r, &Waveforms::at_sink);
}

Pwl SuperpositionEngine::composite_noise_at_root(
    const std::vector<double>& shifts, double victim_holding_r) const {
  return composite_noise(shifts, victim_holding_r, &Waveforms::at_root);
}

Pwl SuperpositionEngine::composite_noise(const std::vector<double>& shifts,
                                         double victim_holding_r,
                                         Pwl Waveforms::*where) const {
  if (shifts.size() != net_.aggressors.size())
    throw std::invalid_argument("composite_noise: wrong shift count");
  Pwl sum;
  for (std::size_t k = 0; k < shifts.size(); ++k) {
    sum = sum.add_shifted(
        aggressor_noise(static_cast<int>(k), victim_holding_r).*where,
        shifts[k]);
  }
  return sum;
}

}  // namespace dn
