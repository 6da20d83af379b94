// Linear superposition engine over a coupled net (paper Figure 1).
//
// Characterizes every driver (C-effective + Thevenin), then provides the
// two building-block simulations of the flow:
//   - aggressor_noise(k, holding_r): aggressor k's Thevenin source switches
//     while the victim driver is grounded through `holding_r` (Rth in the
//     traditional flow, Rtr in the paper's) and every other aggressor is
//     grounded through its own Rth. Returns the *noise* (deviation)
//     waveforms on the victim — Figure 1(b).
//   - victim_transition(): the victim's Thevenin source switches while all
//     aggressors are grounded — Figure 1(c). Returns absolute waveforms.
//
// Because the network is LTI once the drivers are linearized, shifting an
// aggressor's switching time only time-shifts its noise waveform, so each
// aggressor is simulated once per holding resistance and then shifted.
#pragma once

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "ceff/effective_capacitance.hpp"
#include "rcnet/net.hpp"
#include "sim/nonlinear_sim.hpp"

namespace dn {

struct SuperpositionOptions {
  double dt = 1e-12;        // Reference simulation step [s].
  double t_ref = 300e-12;   // Input-ramp start used for all reference sims [s].
  double horizon = 4e-9;    // Transient end time [s].
  /// LTE bound for adaptive stepping in the linear aggressor/victim sims
  /// [V]; 0 forces the fixed `dt` grid (sim/transient.hpp).
  double lte_tol = 5e-4;
  /// Max per-step growth of the adaptive step. These sims are LINEAR on
  /// the full (possibly multi-thousand-node) net, where each distinct
  /// step-size rung costs a sparse refactor of the whole system but a
  /// rejected step only one cheap back-substitution — so growth is set
  /// aggressive to skip intermediate rungs, unlike the nonlinear gate
  /// sims where a reject burns a full Newton solve sequence.
  double max_dt_growth = 32.0;
  CeffOptions ceff{};
  SolverOptions solver{};   // Backend for the aggressor/victim sims.
  /// Newton controls for the nonlinear verification sims run in this
  /// engine's time frame (golden_nonlinear); the solver backend is
  /// overridden by `solver` so one --solver flag rules every sim.
  NewtonOptions newton{};
  /// Nothing in src/ reads this; perfbench/ still sets it (see ROADMAP).
  bool mor_fallback = true;
};

class SuperpositionEngine {
 public:
  /// Characterizes all drivers; throws if any characterization fails.
  SuperpositionEngine(const CoupledNet& net, SuperpositionOptions opts = {});

  const CoupledNet& net() const { return net_; }
  const SuperpositionOptions& options() const { return opts_; }
  double vdd() const { return net_.victim.driver.vdd; }

  const CeffResult& victim_model() const { return victim_model_; }
  const CeffResult& aggressor_model(int k) const;

  /// Victim-root and victim-sink waveforms from one simulation.
  struct Waveforms {
    Pwl at_root;
    Pwl at_sink;
  };

  /// Noise injected on the victim by aggressor k (deviation waveforms;
  /// quiet level subtracted). Cached per (k, holding_r).
  const Waveforms& aggressor_noise(int k, double victim_holding_r) const;

  /// Noiseless victim transition (absolute waveforms), aggressors held.
  const Waveforms& victim_transition() const;

  /// Noise the victim transition induces on aggressor k's root (deviation
  /// from the aggressor's quiet level) — the Figure 1(c) side effect used
  /// by the aggressor-Rtr extension. Cached.
  const Pwl& victim_noise_on_aggressor(int k) const;

  /// Sum of all aggressor noise waveforms at the victim sink, each shifted
  /// by shifts[k], victim held with holding_r. `active`, when non-null,
  /// masks aggressors out of the sum (window/correlation pruning): entry
  /// k == 0 contributes nothing, exactly as if the aggressor never
  /// switched within the horizon.
  Pwl composite_noise_at_sink(const std::vector<double>& shifts,
                              double victim_holding_r,
                              const std::vector<char>* active = nullptr) const;

  /// Same at the victim root (driver output).
  Pwl composite_noise_at_root(const std::vector<double>& shifts,
                              double victim_holding_r,
                              const std::vector<char>* active = nullptr) const;

  /// The victim driver input ramp used by the reference simulations.
  Pwl victim_input() const;
  /// Aggressor k's input ramp at the reference position.
  Pwl aggressor_input(int k) const;

  /// The transient spec all engine sims share: [0, horizon] at reference
  /// step dt, LTE-adaptive per opts.lte_tol.
  TransientSpec transient_spec() const {
    TransientSpec s{0.0, opts_.horizon, opts_.dt};
    s.lte_tol = opts_.lte_tol;
    s.max_dt_growth = opts_.max_dt_growth;
    s.stale_jacobian_iters = opts_.newton.stale_jacobian_iters;
    return s;
  }

 private:
  Waveforms run_aggressor(int k, double victim_holding_r) const;
  Waveforms run_victim() const;

  CoupledNet net_;
  SuperpositionOptions opts_;
  CeffResult victim_model_;
  std::vector<CeffResult> aggressor_models_;
  mutable std::map<std::pair<int, double>, Waveforms> noise_cache_;
  mutable std::optional<Waveforms> victim_cache_;
  mutable std::map<int, Pwl> victim_on_aggressor_cache_;
};

}  // namespace dn
