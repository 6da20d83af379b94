#include "ceff/effective_capacitance.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/linear_sim.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace dn {
namespace {

constexpr double kRelTol = 1e-3;    // Convergence on |dCeff|/Ceff.
/// New-value blend factor (1 = undamped) of the first step and of the
/// fallback when a secant step is non-finite or leaves (1e-18, Ctotal].
constexpr double kDamping = 0.7;
constexpr double kSimDt = 1e-12;    // Reference step of the inner linear sims.
constexpr double kSimTail = 3e-9;   // Linear-sim horizon past the input end.

}  // namespace

CeffResult compute_ceff(
    const GateParams& driver, double input_slew, bool output_rising,
    double t_input_start, const RcTree& net,
    const std::vector<std::pair<int, double>>& extra_node_caps,
    double sink_pin_cap, const CeffOptions& opts) {
  obs::TraceSpan span("ceff.driver", "analyze");
  double c_total = net.total_cap() + sink_pin_cap;
  for (const auto& [node, c] : extra_node_caps) c_total += c;
  if (c_total <= 0.0)
    throw std::invalid_argument("compute_ceff: c_total must be > 0");
  const TheveninTable& table = driver_table(driver, output_rising, opts.fit);

  CeffResult out;
  double ceff = c_total;
  double prev_ceff = 0.0, prev_h = 0.0;  // Previous iterate, for the secant.

  for (int it = 1; it <= opts.max_iterations; ++it) {
    out.iterations = it;
    const TheveninModel m = table.lookup(input_slew, ceff, t_input_start);

    // Linear simulation: Thevenin driver into the real load.
    Circuit ckt;
    const auto map = net.instantiate(ckt, "v");
    for (const auto& [node, c] : extra_node_caps)
      if (c > 0)
        ckt.add_capacitor(map[static_cast<std::size_t>(node)], kGround, c);
    if (sink_pin_cap > 0)
      ckt.add_capacitor(map[static_cast<std::size_t>(net.sink)], kGround,
                        sink_pin_cap);
    const NodeId port = map[0];
    const NodeId src = ckt.node("thv_src");
    const double t_stop = t_input_start + input_slew + kSimTail;
    ckt.add_vsource(src, kGround, m.source(t_stop));
    ckt.add_resistor(src, port, m.rth);

    LinearSim sim(ckt, opts.solver);
    TransientSpec spec{0.0, t_stop, kSimDt};
    spec.lte_tol = opts.fit.lte_tol;
    const auto res = sim.try_run(spec);
    if (!res.ok()) raise(res.status());
    const Pwl v_port = res->waveform(port);

    // Driver-output 50% crossing.
    const double mid = 0.5 * (m.v_from + m.v_to);
    const auto t50 = v_port.crossing(mid, m.rising());
    if (!t50)
      throw std::runtime_error(
          "compute_ceff: port never crossed 50% within the horizon");

    // Charge delivered into the load up to t50.
    const Pwl src_v = m.source(t_stop);
    const Pwl i = (src_v - v_port).scaled(1.0 / m.rth);
    const double q = i.clipped(i.t_begin(), *t50).integral();

    // An ideal capacitor charged to half swing holds C * dV/2.
    const double half_swing = 0.5 * std::abs(m.v_to - m.v_from);
    double ceff_new = std::abs(q) / half_swing;
    ceff_new = std::clamp(ceff_new, 1e-18, c_total);

    // Report the load the model was looked up at, converged or not.
    out.ceff = ceff;
    out.model = m;
    const double h = ceff_new - ceff;  // Fix-point residual h(C) = g(C) - C.
    if (std::abs(h) / std::max(ceff, 1e-18) < kRelTol) {
      out.converged = true;
      break;
    }

    // Secant step on h after the first iteration; the damped step seeds
    // it and catches a secant that is non-finite or leaves (1e-18, c_total].
    double next = (1.0 - kDamping) * ceff + kDamping * ceff_new;
    if (it > 1) {
      const double secant = ceff - h * (ceff - prev_ceff) / (h - prev_h);
      if (std::isfinite(secant) && secant > 1e-18 && secant <= c_total)
        next = secant;
    }
    prev_ceff = ceff;
    prev_h = h;
    ceff = next;
  }
  static obs::Histogram& h_iters =
      obs::metrics().histogram("ceff.iterations_per_driver");
  static obs::Counter& c_unconverged = obs::metrics().counter("ceff.unconverged");
  h_iters.record(static_cast<double>(out.iterations));
  if (!out.converged) c_unconverged.add(1);
  return out;
}

}  // namespace dn
