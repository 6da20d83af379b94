#include "ceff/thevenin.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dn {

Pwl TheveninModel::source(double t_end) const {
  const double end = std::max(t_end, t0 + tr + 1e-15);
  std::vector<double> ts, vs;
  if (t0 > 0.0) {
    ts = {0.0, t0, t0 + tr, end};
    vs = {v_from, v_from, v_to, v_to};
  } else {
    ts = {t0, t0 + tr, end};
    vs = {v_from, v_to, v_to};
  }
  return Pwl(std::move(ts), std::move(vs));
}

namespace {

constexpr double kDt = 1e-12;        // Reference sim step (reference floor).
constexpr double kTail = 3e-9;       // Sim horizon past the input ramp end.
constexpr double kMaxTail = 16 * kTail;  // Longest tail a weak driver gets.
constexpr double kSettled = 0.95;    // Swing, as a fraction of Vdd, that
                                     // ends a reference sim.
constexpr double kTimeTol = 1e-15;   // Crossing-time residual tolerance [s].
constexpr int kMaxIterations = 60;   // Damped-Newton steps per seed.

/// Normalized response at the end of the ramp, w(tr): the level the
/// exponential settling tail starts from.
double ramp_end_w(double tr, double tau) {
  return (tr - tau * (1.0 - std::exp(-tr / tau))) / tr;
}

/// Normalized rising response w in [0,1] at u = t - t0 for time constant
/// tau; `w_end` = ramp_end_w(tr, tau) is read only on the settling tail.
double normalized_response(double u, double tr, double tau, double w_end) {
  if (u <= 0.0) return 0.0;
  if (tau <= 0.0) return std::min(u / tr, 1.0);
  if (u <= tr) return (u - tau * (1.0 - std::exp(-u / tau))) / tr;
  return 1.0 - (1.0 - w_end) * std::exp(-(u - tr) / tau);
}

}  // namespace

double TheveninModel::response(double t, double cload) const {
  // Direction is handled by mapping w onto [v_from, v_to].
  const double tau = rth * cload;
  const double w = normalized_response(t - t0, tr, tau, ramp_end_w(tr, tau));
  return v_from + w * (v_to - v_from);
}

std::optional<double> TheveninModel::response_crossing(double frac,
                                                       double cload) const {
  if (frac <= 0.0 || frac >= 1.0) return std::nullopt;
  const double tau = rth * cload;
  const double target = v_from + frac * (v_to - v_from);
  const double dir = (v_to > v_from) ? 1.0 : -1.0;
  // The response is monotonic; a level it has not reached 40 tau past
  // the ramp end counts as never reached.
  const double t_hi = t0 + tr + std::max(40.0 * tau, 1e-15);
  const double w_end = ramp_end_w(tr, tau);
  const double w_hi = normalized_response(t_hi - t0, tr, tau, w_end);
  if (dir * (v_from + w_hi * (v_to - v_from) - target) < 0.0)
    return std::nullopt;
  if (tau <= 0.0) return t0 + frac * tr;  // Bare ramp.
  // Settling tail: w = 1 - (1 - w_end) exp(-(u - tr)/tau), inverted.
  if (frac >= w_end)
    return t0 + tr + tau * std::log((1.0 - w_end) / (1.0 - frac));
  // Ramp segment: g(u) = u - tau(1 - exp(-u/tau)) - frac*tr is convex and
  // increasing with g(tr) > 0, so Newton from u = tr descends onto the
  // root monotonically; stop once it no longer moves it left.
  const double level = frac * tr;
  double u = tr;
  for (int it = 0; it < 100; ++it) {
    const double rise = -std::expm1(-u / tau);  // 1 - exp(-u/tau) = g'(u).
    const double step = (u - tau * rise - level) / rise;
    if (!(step > 0.0)) break;
    u -= step;
    if (step <= 1e-22) break;
  }
  return t0 + u;
}

Pwl simulate_reference(GateSim& sim, const Pwl& vin,
                       const TheveninFitOptions& opts) {
  const double vdd = sim.gate().vdd;
  if (std::abs(vin.max_value() - vin.min_value()) < 0.5 * vdd)
    throw std::runtime_error("fit_thevenin: input does not switch");

  // A weak driver into a heavy load may not settle within kTail: double
  // the tail until the output has swung kSettled of the rail, so the
  // 10/50/90% crossings are taken on a full transition. Outputs that
  // settle within kTail run exactly once, on the kTail horizon.
  for (double tail = kTail;; tail *= 2.0) {
    TransientSpec spec{0.0, vin.t_end() + tail, kDt};
    spec.lte_tol = opts.lte_tol;
    spec.stale_jacobian_iters = opts.stale_jacobian_iters;
    auto ref = sim.try_run(vin, spec);
    if (!ref.ok()) raise(ref.status());
    const double v_start = ref->values().front();
    const double v_end = ref->values().back();
    if (std::abs(v_end - v_start) >= kSettled * vdd)
      return std::move(ref).value();
    if (tail >= kMaxTail)
      throw std::runtime_error(
          "fit_thevenin: reference output did not settle");
  }
}

Crossings reference_crossings(const Pwl& out) {
  const double v_start = out.values().front();
  const double v_end = out.values().back();
  const bool rising = v_end > v_start;
  auto crossing = [&](double frac) {
    const double level = v_start + frac * (v_end - v_start);
    const auto t = out.crossing(level, rising);
    if (!t) throw std::runtime_error("fit_thevenin: missing reference crossing");
    return *t;
  };
  return {crossing(0.1), crossing(0.5), crossing(0.9)};
}

TheveninModel fit_crossings(const Crossings& c, bool rising, double vdd,
                            double cload, double* worst_residual) {
  const double t10 = c.t10, t50 = c.t50, t90 = c.t90;

  // Parameters theta = (t0, log tr, log rth); residuals are the three
  // crossing-time errors. Damped Newton with finite-difference Jacobian,
  // multi-started over several Rth seeds (the landscape has shallow
  // valleys for slow inputs into light loads).
  TheveninModel m;
  m.v_from = rising ? 0.0 : vdd;
  m.v_to = rising ? vdd : 0.0;
  m.t0 = t10 - 0.15 * (t90 - t10);
  m.tr = (t90 - t10) / 0.8;
  m.rth = std::max(0.25 * m.tr / cload, 1.0);

  auto residuals = [&](const TheveninModel& mm, double* r) -> bool {
    const auto c10 = mm.response_crossing(0.1, cload);
    const auto c50 = mm.response_crossing(0.5, cload);
    const auto c90 = mm.response_crossing(0.9, cload);
    if (!c10 || !c50 || !c90) return false;
    r[0] = *c10 - t10;
    r[1] = *c50 - t50;
    r[2] = *c90 - t90;
    return true;
  };

  auto model_of = [&](const double* th) {
    TheveninModel mm = m;
    mm.t0 = th[0];
    mm.tr = std::exp(std::clamp(th[1], std::log(1e-15), std::log(1e-6)));
    mm.rth = std::exp(std::clamp(th[2], std::log(1e-2), std::log(1e7)));
    return mm;
  };

  const double scale_t = std::max(t90 - t10, 1e-13);

  // One damped-Newton descent from a given theta; returns the final
  // residual (inf if the seed produced no crossings) and updates theta/r.
  auto descend = [&](double* theta, double* r) -> double {
  if (!residuals(model_of(theta), r))
    return std::numeric_limits<double>::infinity();

  for (int it = 0; it < kMaxIterations; ++it) {
    const double err = std::max({std::abs(r[0]), std::abs(r[1]), std::abs(r[2])});
    if (err < kTimeTol) break;

    // Finite-difference Jacobian.
    double jac[3][3];
    bool ok = true;
    for (int j = 0; j < 3 && ok; ++j) {
      const double h = (j == 0) ? 1e-4 * scale_t : 1e-5;
      double thp[3] = {theta[0], theta[1], theta[2]};
      thp[j] += h;
      double rp[3];
      ok = residuals(model_of(thp), rp);
      if (!ok) break;
      for (int i = 0; i < 3; ++i) jac[i][j] = (rp[i] - r[i]) / h;
    }
    if (!ok) break;

    // Solve the 3x3 system jac * d = r by Cramer elimination.
    double a[3][4];
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) a[i][j] = jac[i][j];
      a[i][3] = r[i];
    }
    bool singular = false;
    for (int k = 0; k < 3; ++k) {
      int piv = k;
      for (int i = k + 1; i < 3; ++i)
        if (std::abs(a[i][k]) > std::abs(a[piv][k])) piv = i;
      if (std::abs(a[piv][k]) < 1e-30) {
        singular = true;
        break;
      }
      if (piv != k)
        for (int j = k; j < 4; ++j) std::swap(a[piv][j], a[k][j]);
      for (int i = k + 1; i < 3; ++i) {
        const double f = a[i][k] / a[k][k];
        for (int j = k; j < 4; ++j) a[i][j] -= f * a[k][j];
      }
    }
    if (singular) break;
    double d[3];
    for (int i = 2; i >= 0; --i) {
      double acc = a[i][3];
      for (int j = i + 1; j < 3; ++j) acc -= a[i][j] * d[j];
      d[i] = acc / a[i][i];
    }

    // Damped line search: accept the largest step that reduces the residual.
    const double err0 = err;
    bool accepted = false;
    for (double lambda = 1.0; lambda > 1e-3; lambda *= 0.5) {
      double cand[3] = {theta[0] - lambda * d[0], theta[1] - lambda * d[1],
                        theta[2] - lambda * d[2]};
      double rc[3];
      if (!residuals(model_of(cand), rc)) continue;
      const double errc = std::max({std::abs(rc[0]), std::abs(rc[1]),
                                    std::abs(rc[2])});
      if (errc < err0) {
        std::copy(cand, cand + 3, theta);
        std::copy(rc, rc + 3, r);
        accepted = true;
        break;
      }
    }
    if (!accepted) break;
  }
  return std::max({std::abs(r[0]), std::abs(r[1]), std::abs(r[2])});
  };

  // Multi-start over Rth seeds; keep the best descent.
  double best_theta[3] = {0, 0, 0};
  double best_err = std::numeric_limits<double>::infinity();
  for (const double rth_mult : {0.25, 0.05, 1.0, 4.0}) {
    const double rth_seed = std::max(rth_mult * m.tr / cload, 1.0);
    double theta[3] = {m.t0, std::log(m.tr), std::log(rth_seed)};
    double r[3];
    const double err = descend(theta, r);
    if (err < best_err) {
      best_err = err;
      std::copy(theta, theta + 3, best_theta);
    }
    if (best_err < kTimeTol) break;
  }
  if (!std::isfinite(best_err))
    throw std::runtime_error("fit_thevenin: no seed produced a valid model");
  if (worst_residual) *worst_residual = best_err;
  return model_of(best_theta);
}

TheveninFit fit_thevenin(const GateParams& gate, const Pwl& vin, double cload,
                         const TheveninFitOptions& opts) {
  if (cload <= 0.0)
    throw std::invalid_argument("fit_thevenin: cload must be > 0");
  TheveninFit out;
  GateSim sim(gate, cload);
  out.reference = simulate_reference(sim, vin, opts);
  const bool rising =
      out.reference.values().back() > out.reference.values().front();
  out.model = fit_crossings(reference_crossings(out.reference), rising,
                            gate.vdd, cload, &out.worst_residual);
  out.converged = out.worst_residual < 1e-12;  // Within one sim step.
  return out;
}

}  // namespace dn
