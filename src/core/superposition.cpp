#include "core/superposition.hpp"

#include <stdexcept>
#include <string>

#include "sim/linear_sim.hpp"

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

  // Victim driver: Ceff + Thevenin with coupling caps grounded.
  victim_model_ = compute_ceff_for_net(
      net_.victim.driver, victim_input(), net_.victim.net,
      grounded_couplings_for_victim(net_), net_.victim.receiver.input_cap(),
      opts_.ceff);

  aggressor_models_.reserve(net_.aggressors.size());
  for (std::size_t k = 0; k < net_.aggressors.size(); ++k) {
    const auto& agg = net_.aggressors[k];
    aggressor_models_.push_back(compute_ceff_for_net(
        agg.driver, aggressor_input(static_cast<int>(k)), agg.net,
        grounded_couplings_for_aggressor(net_, static_cast<int>(k)),
        agg.sink_load, opts_.ceff));
  }
}

const CeffResult& SuperpositionEngine::aggressor_model(int k) const {
  if (k < 0 || static_cast<std::size_t>(k) >= aggressor_models_.size())
    throw std::out_of_range("SuperpositionEngine: bad aggressor index");
  return aggressor_models_[static_cast<std::size_t>(k)];
}

Pwl SuperpositionEngine::victim_input() const {
  return driver_input_ramp(net_.victim.driver, net_.victim.input_slew,
                           net_.victim.output_rising, opts_.t_ref);
}

Pwl SuperpositionEngine::aggressor_input(int k) const {
  const auto& agg = net_.aggressors.at(static_cast<std::size_t>(k));
  return driver_input_ramp(agg.driver, agg.input_slew, agg.output_rising,
                           opts_.t_ref);
}

SuperpositionEngine::Waveforms SuperpositionEngine::run_aggressor(
    int k, double victim_holding_r) const {
  if (victim_holding_r <= 0)
    throw std::invalid_argument("aggressor_noise: holding R must be > 0");

  // Noise-domain circuit: all quiet levels are 0 and the switching
  // aggressor's source swings 0 -> +/-vdd through its Rth.
  Circuit ckt;
  const auto vmap = net_.victim.net.instantiate(ckt, "v");
  ckt.add_resistor(vmap[0], kGround, victim_holding_r);
  // A held driver is more than a resistance: its drain junctions and
  // gate-drain overlap still load the net. The full nonlinear circuit has
  // these automatically; the linear model must add them explicitly or it
  // systematically underestimates how slowly noise decays on small nets.
  ckt.add_capacitor(vmap[0], kGround,
                    net_.victim.driver.output_parasitic_cap());
  ckt.add_capacitor(vmap[static_cast<std::size_t>(net_.victim.net.sink)],
                    kGround, net_.victim.receiver.input_cap());

  std::vector<std::vector<NodeId>> amaps;
  for (std::size_t j = 0; j < net_.aggressors.size(); ++j) {
    const auto& agg = net_.aggressors[j];
    const auto amap = agg.net.instantiate(ckt, "a" + std::to_string(j) + "_");
    if (agg.sink_load > 0)
      ckt.add_capacitor(amap[static_cast<std::size_t>(agg.net.sink)], kGround,
                        agg.sink_load);
    if (static_cast<int>(j) != k)
      ckt.add_capacitor(amap[0], kGround,
                        agg.driver.output_parasitic_cap());
    if (static_cast<int>(j) == k) {
      const TheveninModel& m = aggressor_models_[j].model;
      TheveninModel noise_src = m;  // Same timing/rth, deviation levels.
      noise_src.v_from = 0.0;
      noise_src.v_to = net_.aggressors[j].output_rising
                           ? net_.aggressors[j].driver.vdd
                           : -net_.aggressors[j].driver.vdd;
      const NodeId src = ckt.node("agg_src");
      ckt.add_vsource(src, kGround, noise_src.source(opts_.horizon));
      ckt.add_resistor(src, amap[0], m.rth);
    } else {
      ckt.add_resistor(amap[0], kGround, aggressor_models_[j].model.rth);
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

SuperpositionEngine::Waveforms SuperpositionEngine::run_victim() const {
  Circuit ckt;
  const auto vmap = net_.victim.net.instantiate(ckt, "v");
  ckt.add_capacitor(vmap[static_cast<std::size_t>(net_.victim.net.sink)],
                    kGround, net_.victim.receiver.input_cap());
  const TheveninModel& m = victim_model_.model;
  const NodeId src = ckt.node("vic_src");
  ckt.add_vsource(src, kGround, m.source(opts_.horizon));
  ckt.add_resistor(src, vmap[0], m.rth);

  std::vector<std::vector<NodeId>> amaps;
  for (std::size_t j = 0; j < net_.aggressors.size(); ++j) {
    const auto& agg = net_.aggressors[j];
    const auto amap = agg.net.instantiate(ckt, "a" + std::to_string(j) + "_");
    if (agg.sink_load > 0)
      ckt.add_capacitor(amap[static_cast<std::size_t>(agg.net.sink)], kGround,
                        agg.sink_load);
    ckt.add_resistor(amap[0], kGround, aggressor_models_[j].model.rth);
    // Held-driver parasitics (see run_aggressor).
    ckt.add_capacitor(amap[0], kGround, agg.driver.output_parasitic_cap());
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
  // Record the noise the victim injects on each aggressor root (the nets
  // are at 0 quiet level in this circuit, so the waveform IS the noise).
  for (std::size_t j = 0; j < amaps.size(); ++j)
    victim_on_aggressor_cache_[static_cast<int>(j)] =
        res->waveform(amaps[j][0]);
  return w;
}

const Pwl& SuperpositionEngine::victim_noise_on_aggressor(int k) const {
  if (k < 0 || static_cast<std::size_t>(k) >= net_.aggressors.size())
    throw std::out_of_range("victim_noise_on_aggressor: bad index");
  victim_transition();  // Ensure the victim run populated the cache.
  return victim_on_aggressor_cache_.at(k);
}

const SuperpositionEngine::Waveforms& SuperpositionEngine::aggressor_noise(
    int k, double victim_holding_r) const {
  if (k < 0 || static_cast<std::size_t>(k) >= net_.aggressors.size())
    throw std::out_of_range("aggressor_noise: bad aggressor index");
  const auto key = std::make_pair(k, victim_holding_r);
  const auto it = noise_cache_.find(key);
  if (it != noise_cache_.end()) return it->second;
  return noise_cache_.emplace(key, run_aggressor(k, victim_holding_r))
      .first->second;
}

const SuperpositionEngine::Waveforms& SuperpositionEngine::victim_transition()
    const {
  if (!victim_cache_) victim_cache_ = run_victim();
  return *victim_cache_;
}

Pwl SuperpositionEngine::composite_noise_at_sink(
    const std::vector<double>& shifts, double victim_holding_r,
    const std::vector<char>* active) const {
  if (shifts.size() != net_.aggressors.size())
    throw std::invalid_argument("composite_noise: wrong shift count");
  if (active && active->size() != shifts.size())
    throw std::invalid_argument("composite_noise: wrong mask size");
  Pwl sum;
  for (std::size_t k = 0; k < shifts.size(); ++k) {
    if (active && !(*active)[k]) continue;
    sum = sum.add_shifted(
        aggressor_noise(static_cast<int>(k), victim_holding_r).at_sink,
        shifts[k]);
  }
  return sum;
}

Pwl SuperpositionEngine::composite_noise_at_root(
    const std::vector<double>& shifts, double victim_holding_r,
    const std::vector<char>* active) const {
  if (shifts.size() != net_.aggressors.size())
    throw std::invalid_argument("composite_noise: wrong shift count");
  if (active && active->size() != shifts.size())
    throw std::invalid_argument("composite_noise: wrong mask size");
  Pwl sum;
  for (std::size_t k = 0; k < shifts.size(); ++k) {
    if (active && !(*active)[k]) continue;
    sum = sum.add_shifted(
        aggressor_noise(static_cast<int>(k), victim_holding_r).at_root,
        shifts[k]);
  }
  return sum;
}

}  // namespace dn
