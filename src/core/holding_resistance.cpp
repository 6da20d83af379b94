#include "core/holding_resistance.hpp"

#include <algorithm>
#include <cmath>
#include <span>
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

namespace {

/// The part of V1's grid a V2 replaces: samples `first` through `stop`.
/// first > 0: In is exactly zero through sample first - 1, so V2 resumes
/// from V1's last checkpoint at or before it; first == 0: V2 starts from
/// its own DC point at t = 0. stop == 0: In is zero on the whole grid.
struct InjectionWindow {
  std::size_t first = 0;
  std::size_t stop = 0;
};

InjectionWindow injection_window(const Pwl& in, std::span<const double> tg,
                                 double charge_cut) {
  InjectionWindow w;
  const std::size_t n = tg.size();
  // Head: In is exactly zero up to the knot before its first nonzero one,
  // so V2 matches V1 through the last grid sample at or before that knot.
  const auto iv = in.values();
  const auto it = in.times();
  std::size_t j = 0;
  while (j < iv.size() && iv[j] == 0.0) ++j;
  if (j == iv.size()) return w;
  if (j > 0 && it[j - 1] >= tg.front()) {
    const auto past = std::upper_bound(tg.begin(), tg.end(), it[j - 1]);
    w.first = static_cast<std::size_t>(past - tg.begin());
    if (w.first >= n) return {};  // Onset after the horizon.
  }
  // Tail: the first sample after which at most charge_cut of the total
  // |In| charge on the grid is still to come.
  std::vector<double> a(n);
  std::size_t cursor = 0;
  for (std::size_t k = 0; k < n; ++k)
    a[k] = std::abs(in.at_hint(tg[k], cursor));
  auto seg = [&](std::size_t k) {  // Charge over [tg[k-1], tg[k]].
    return 0.5 * (a[k] + a[k - 1]) * (tg[k] - tg[k - 1]);
  };
  double total = 0.0;
  for (std::size_t k = 1; k < n; ++k) total += seg(k);
  if (!(total > 0.0)) return {};
  std::size_t m = n - 1;
  double rest = 0.0;
  while (m > w.first && rest + seg(m) <= charge_cut * total) rest += seg(m--);
  w.stop = std::max<std::size_t>(m, 1);
  return w;
}

}  // namespace

RtrResult compute_rtr(const SuperpositionEngine& eng,
                      const std::vector<double>& shifts,
                      const RtrOptions& opts,
                      const std::vector<char>* active,
                      NoiselessDriverSim* noiseless) {
  static obs::Counter& c_steps = obs::metrics().counter("rtr.driver_steps");
  static obs::Histogram& h_share =
      obs::metrics().histogram("rtr.window_share");
  const CeffResult& vm = eng.victim_model();
  RtrResult out;
  out.rth = vm.model.rth;

  const double dt = eng.options().dt;
  const double cload = vm.ceff;
  TransientSpec spec{0.0, eng.options().horizon, dt};
  spec.stale_jacobian_iters = opts.stale_jacobian_iters;

  // The driver circuit (injection source included, at zero) and its
  // simulator are built once per engine; so is V1, which is independent
  // of the holding resistance. Element order matches try_simulate_gate.
  NoiselessDriverSim local;
  NoiselessDriverSim& ds = noiseless ? *noiseless : local;
  if (!ds.sim) {
    const GateParams& driver = eng.net().victim.driver;
    const NodeId vdd = add_vdd(ds.ckt, driver.vdd);
    const NodeId in = ds.ckt.node("in");
    ds.out = ds.ckt.node("out");
    ds.ckt.add_vsource(in, kGround, eng.victim_input());
    instantiate_gate(ds.ckt, driver, in, ds.out, vdd);
    if (cload > 0) ds.ckt.add_capacitor(ds.out, kGround, cload);
    ds.noise_src = ds.ckt.add_isource(ds.out, kGround, Pwl::constant(0.0));
    ds.sim.emplace(ds.ckt);
  }
  if (ds.v1.empty()) {
    auto v1r = ds.sim->try_run(
        spec, {.checkpoint_every = NoiselessDriverSim::kCheckpointStride});
    if (!v1r.ok()) raise(v1r.status());
    ds.v1 = v1r->waveform(ds.out);
    ds.checkpoints = v1r->checkpoints();
    c_steps.add(ds.v1.size() - 1);
  }
  const auto tg = ds.v1.times();
  const auto v1 = ds.v1.values();
  const double charge_cut = opts.rel_tol / 100.0;

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

    // Steps 3-4: nonlinear driver with the noise current injected, over
    // the injection window only; V'n = V2 - V1 is exactly 0 outside it.
    const InjectionWindow w = injection_window(in_cur, tg, charge_cut);
    std::vector<double> dv(tg.size(), 0.0);
    double q_in = 0.0;
    std::size_t start = 0;  // V2's first sample on V1's grid.
    if (w.stop > 0) {
      constexpr std::size_t kStride = NoiselessDriverSim::kCheckpointStride;
      const std::vector<double>* resume_from = nullptr;
      if (w.first > 0) {
        start = (w.first - 1) / kStride * kStride;
        resume_from = &ds.checkpoints[start / kStride];
      }
      ds.ckt.set_isource_waveform(ds.noise_src, in_cur);
      TransientSpec wspec = spec;
      wspec.t_start = tg[start];
      wspec.t_stop = tg[w.stop];
      auto v2r = ds.sim->try_run(wspec, {.start_state = resume_from});
      if (!v2r.ok()) raise(v2r.status());
      const TransientResult& v2 = *v2r;
      if (v2.num_points() != w.stop - start + 1 ||
          v2.time().back() != tg[w.stop])
        throw std::logic_error("compute_rtr: V2 left V1's time grid");
      for (std::size_t k = w.first; k <= w.stop; ++k)
        dv[k] = v2.v(ds.out, k - start) - v1[k];
      q_in = in_cur.clipped(tg.front(), tg[w.stop]).integral();
      c_steps.add(w.stop - start);
    }
    h_share.record(static_cast<double>(w.stop - start) /
                   static_cast<double>(tg.size() - 1));
    const Pwl vpn(std::vector<double>(tg.begin(), tg.end()), std::move(dv));

    // Step 5: area matching, both integrals over the simulated span.
    const double a_vn = vpn.integral();
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
      out.vn_nonlinear = vpn;
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
  // Difference measurement: fixed grid, so V1/V2 discretization cancels.
  TransientSpec spec{0.0, horizon, 1e-12};
  GateSimCache warm;

  auto v1r = try_simulate_gate(driver, vin, ceff, spec, std::nullopt, &warm);
  if (!v1r.ok()) raise(v1r.status());
  auto v2r = try_simulate_gate(driver, vin, ceff, spec, probe, &warm);
  if (!v2r.ok()) raise(v2r.status());
  const Pwl vn = *v2r - *v1r;
  const double q = probe.integral();
  const double a = vn.integral();
  const double r = (std::abs(q) < 1e-24) ? 0.0 : a / q;
  if (!(r > 0.0) || !std::isfinite(r))
    throw std::runtime_error("quiet_holding_resistance: degenerate response");
  return r;
}

}  // namespace dn
