#include "core/holding_resistance.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "circuit/circuit.hpp"
#include "devices/gate.hpp"
#include "sim/nonlinear_sim.hpp"
#include "util/metrics.hpp"
#include "waveform/pulse.hpp"

namespace dn {

Pwl differentiate(const Pwl& w, double dt) {
  if (w.empty() || w.size() < 2) return Pwl{};
  const double t0 = w.t_begin(), t1 = w.t_end();
  const int n = std::max(static_cast<int>((t1 - t0) / dt), 4);
  const Pwl rs = w.resampled(t0, t1, n + 1);
  std::vector<double> ts(rs.times().begin(), rs.times().end());
  std::vector<double> dv(ts.size(), 0.0);
  const auto& vs = rs.values();
  const double h = ts[1] - ts[0];
  for (std::size_t i = 1; i + 1 < ts.size(); ++i)
    dv[i] = (vs[i + 1] - vs[i - 1]) / (2 * h);
  dv.front() = (vs[1] - vs[0]) / h;
  dv.back() = (vs[vs.size() - 1] - vs[vs.size() - 2]) / h;
  return Pwl(std::move(ts), std::move(dv));
}

namespace {

/// The paired driver sim behind both area-matching recipes (paper
/// Figure 4): two copies of `driver` share the input source and vdd, each
/// drives its own `cload`, and the noise-current source sits on copy 2
/// only. One transient steps both copies on one grid, so V'n = V2 - V1
/// carries no grid-mismatch error, and until the current turns on the
/// copies follow identical arithmetic and V'n is exactly 0. The circuit
/// and simulator are built once; each run swaps only the injected
/// waveform. Not copyable: the simulator holds a reference to the circuit.
class PairedDriverSim {
 public:
  PairedDriverSim(const GateParams& driver, const Pwl& vin, double cload) {
    const NodeId vdd = add_vdd(ckt_, driver.vdd);
    const NodeId in = ckt_.node("in");
    ckt_.add_vsource(in, kGround, vin);
    out1_ = ckt_.node("out1");
    instantiate_gate(ckt_, driver, in, out1_, vdd);
    if (cload > 0) ckt_.add_capacitor(out1_, kGround, cload);
    out2_ = ckt_.node("out2");
    instantiate_gate(ckt_, driver, in, out2_, vdd);
    if (cload > 0) ckt_.add_capacitor(out2_, kGround, cload);
    noise_src_ = ckt_.add_isource(out2_, kGround, Pwl::constant(0.0));
    sim_.emplace(ckt_);
  }
  PairedDriverSim(const PairedDriverSim&) = delete;
  PairedDriverSim& operator=(const PairedDriverSim&) = delete;

  /// V'n = V2 - V1 with `in` injected into copy 2, on the run's grid.
  Pwl noise_response(const Pwl& in, const TransientSpec& spec) {
    ckt_.set_isource_waveform(noise_src_, in);
    auto run = sim_->try_run(spec);
    if (!run.ok()) raise(run.status());
    std::vector<double> dv(run->num_points());
    for (std::size_t k = 0; k < dv.size(); ++k)
      dv[k] = run->v(out2_, k) - run->v(out1_, k);
    return Pwl(run->time(), std::move(dv));
  }

 private:
  Circuit ckt_;
  NodeId out1_ = kGround;
  NodeId out2_ = kGround;
  int noise_src_ = -1;
  std::optional<NonlinearSim> sim_;
};

}  // namespace

RtrResult compute_rtr(const SuperpositionEngine& eng,
                      const std::vector<double>& shifts,
                      const RtrOptions& opts,
                      const std::vector<char>* active) {
  static obs::Counter& c_steps = obs::metrics().counter("rtr.driver_steps");
  const CeffResult& vm = eng.victim_model();
  RtrResult out;
  out.rth = vm.model.rth;

  const double dt = eng.options().dt;
  const double horizon = eng.options().horizon;
  const double cload = vm.ceff;
  TransientSpec spec{0.0, horizon, dt};
  spec.lte_tol = eng.options().lte_tol;
  spec.stale_jacobian_iters = opts.stale_jacobian_iters;
  PairedDriverSim pair(eng.net().victim.driver, eng.victim_input(), cload);

  double holding = out.rth;
  for (int it = 1; it <= opts.max_iterations; ++it) {
    out.iterations = it;

    // Step 1: total noise at the victim root with the current holding R.
    const Pwl vn = eng.composite_noise_at_root(shifts, holding, active);

    // Step 2: injected noise current In = Vn/Rth + Cload dVn/dt. The paper
    // uses Rth here (the conversion happens in the Figure 4(a) circuit,
    // whose resistance is the one used in the linear noise simulation).
    const Pwl ivn = vn.scaled(1.0 / holding);
    const Pwl icap = differentiate(vn, dt).scaled(cload);
    const Pwl in_cur = ivn + icap;

    // Steps 3-4: the nonlinear driver without and with the noise current,
    // as one paired sim over [0, horizon].
    Pwl vpn = pair.noise_response(in_cur, spec);
    c_steps.add(vpn.size() - 1);

    // Step 5: area matching, both integrals over the simulated span.
    const double a_vn = vpn.integral();
    const double q_in = in_cur.clipped(0.0, horizon).integral();
    double rtr;
    if (std::abs(q_in) < 1e-24) {
      rtr = holding;  // No meaningful noise: keep the current model.
    } else {
      rtr = a_vn / q_in;
    }
    if (!(rtr > 0.0) || !std::isfinite(rtr)) rtr = out.rth;
    rtr = std::clamp(rtr, opts.r_min, opts.r_max);

    if (it == 1) {
      out.vn_linear = vn;
      out.in_current = in_cur;
      out.vn_nonlinear = std::move(vpn);
    }

    const double delta = std::abs(rtr - holding) / std::max(holding, 1e-9);
    out.rtr = rtr;
    if (it > 1 && delta < opts.rel_tol) {
      out.converged = true;
      break;
    }
    holding = rtr;
  }
  return out;
}

double quiet_holding_resistance(const GateParams& driver, bool output_high,
                                double ceff, double probe_width,
                                double probe_amp) {
  if (ceff <= 0) throw std::invalid_argument("quiet_holding_resistance: ceff");
  // Input level that parks the output at the requested rail.
  const bool input_high = gate_inverts(driver.type) ? !output_high : output_high;
  const double vin_level = input_high ? driver.vdd : 0.0;

  const double t_peak = 0.6e-9;
  const double horizon = t_peak + 10 * probe_width + 1e-9;
  const Pwl vin = Pwl::constant(vin_level, 0.0, horizon);
  // Probe polarity pushes the output AWAY from its rail.
  const double amp = output_high ? -probe_amp : probe_amp;
  const Pwl probe = triangle_pulse(amp, probe_width, t_peak);
  // Difference measurement on the fixed grid.
  const TransientSpec spec{0.0, horizon, 1e-12};
  PairedDriverSim pair(driver, vin, ceff);
  const Pwl vn = pair.noise_response(probe, spec);
  const double q = probe.integral();
  const double a = vn.integral();
  const double r = (std::abs(q) < 1e-24) ? 0.0 : a / q;
  if (!(r > 0.0) || !std::isfinite(r))
    throw std::runtime_error("quiet_holding_resistance: degenerate response");
  return r;
}

}  // namespace dn
