#include "core/holding_resistance.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "devices/gate.hpp"
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

RtrResult compute_rtr(const SuperpositionEngine& eng,
                      const std::vector<double>& shifts, double holding_r,
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
  spec.stale_jacobian_iters = eng.options().newton.stale_jacobian_iters;

  // Step 1: total noise at the victim root with the current holding R.
  out.vn_linear = eng.composite_noise_at_root(shifts, holding_r, active);

  // Step 2: injected noise current In = Vn/R + Cload dVn/dt. The
  // conversion happens in the Figure 4(a) circuit, whose resistance is the
  // one used in the linear noise simulation.
  out.in_current = out.vn_linear.scaled(1.0 / holding_r) +
                   differentiate(out.vn_linear, dt).scaled(cload);

  // Step 3: the nonlinear driver without and with the noise current, as
  // one paired sim over [0, horizon].
  GateSim pair(eng.net().victim.driver, cload, GateSim::Kind::kPaired);
  auto run = pair.try_run(eng.victim_input(), spec, nullptr, &out.in_current);
  if (!run.ok()) raise(run.status());
  out.vn_nonlinear = std::move(run).value();
  c_steps.add(out.vn_nonlinear.size() - 1);

  // Step 4: area matching, both integrals over the simulated span.
  const double a_vn = out.vn_nonlinear.integral();
  const double q_in = out.in_current.clipped(0.0, horizon).integral();
  // No meaningful noise: keep the current model.
  double rtr = std::abs(q_in) < 1e-24 ? holding_r : a_vn / q_in;
  if (!(rtr > 0.0) || !std::isfinite(rtr)) rtr = out.rth;
  out.rtr = std::clamp(rtr, kRtrMin, kRtrMax);
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
  GateSim pair(driver, ceff, GateSim::Kind::kPaired);
  auto run = pair.try_run(vin, spec, nullptr, &probe);
  if (!run.ok()) raise(run.status());
  const Pwl vn = std::move(run).value();
  const double q = probe.integral();
  const double a = vn.integral();
  const double r = (std::abs(q) < 1e-24) ? 0.0 : a / q;
  if (!(r > 0.0) || !std::isfinite(r))
    throw std::runtime_error("quiet_holding_resistance: degenerate response");
  return r;
}

}  // namespace dn
