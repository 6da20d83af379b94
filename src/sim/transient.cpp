#include "sim/transient.hpp"

#include <algorithm>
#include <cmath>

namespace dn {

Status TransientSpec::validate() const {
  if (!(t_stop > t_start) || !(dt > 0))
    return Status::InvalidArgument("TransientSpec: bad time range/step");
  if (!(lte_tol >= 0) || !std::isfinite(lte_tol))
    return Status::InvalidArgument("TransientSpec: lte_tol must be >= 0");
  if (stale_jacobian_iters < -1 || stale_jacobian_iters > 1000)
    return Status::InvalidArgument(
        "TransientSpec: stale_jacobian_iters must be in [-1, 1000]");
  if (adaptive()) {
    if (!(max_dt_growth > 1.0) || !(max_dt_growth <= 64.0))
      return Status::InvalidArgument(
          "TransientSpec: max_dt_growth must be in (1, 64]");
    if (!(dt_max_factor >= 1.0) || !(dt_max_factor <= 4096.0))
      return Status::InvalidArgument(
          "TransientSpec: dt_max_factor must be in [1, 4096]");
  }
  const double n = (t_stop - t_start) / dt;
  if (n > 2e7)
    return Status::InvalidArgument(
        "TransientSpec: more than 2e7 steps requested; check units");
  return Status::Ok();
}

StatusOr<int> TransientSpec::num_steps() const {
  Status s = validate();
  if (!s.ok()) return s;
  return static_cast<int>((t_stop - t_start) / dt + 0.5);
}

void TransientResult::reserve(std::size_t points) {
  time_.reserve(points);
  for (auto& row : v_) row.reserve(points);
}

std::size_t TransientResult::add_sample(double t) {
  time_.push_back(t);
  for (auto& row : v_) row.push_back(0.0);
  return time_.size() - 1;
}

std::vector<double> source_breakpoints(const Circuit& ckt, double t0,
                                       double t1) {
  // A corner only needs step clamping when it is a real KINK — a slope
  // discontinuity comparable to the waveform's overall scale (analytic
  // ramp ends, pulse onsets/peaks: the slope change there IS the max
  // slope). Waveforms that are sampled versions of smooth signals —
  // composite noise pulses and sink transitions re-entering a receiver
  // sim carry the corners of the upstream adaptive grid — show slope
  // changes of at most ~10% of scale per corner; treating those as kinks
  // would clamp every step to the reference grid and defeat adaptivity.
  // Their curvature is exactly what the LTE estimator handles.
  constexpr double kKinkFraction = 0.15;
  std::vector<double> bp;
  auto collect = [&](const Pwl& w) {
    const auto& ts = w.times();
    const auto& vs = w.values();
    if (ts.size() < 2) return;
    auto slope = [&](std::size_t i) {  // Segment [i-1, i].
      const double h = ts[i] - ts[i - 1];
      return h > 0 ? (vs[i] - vs[i - 1]) / h : 0.0;
    };
    double smax = 0.0;
    for (std::size_t i = 1; i < ts.size(); ++i)
      smax = std::max(smax, std::abs(slope(i)));
    if (smax == 0.0) return;
    const double kink = kKinkFraction * smax;
    auto keep = [&](double t, double dslope) {
      if (t > t0 && t < t1 && std::abs(dslope) >= kink) bp.push_back(t);
    };
    // The waveform extends as a constant before its first and after its
    // last corner, so those corners kink against slope zero.
    keep(ts.front(), slope(1));
    for (std::size_t i = 1; i + 1 < ts.size(); ++i)
      keep(ts[i], slope(i + 1) - slope(i));
    keep(ts.back(), slope(ts.size() - 1));
  };
  for (const auto& v : ckt.vsources()) collect(v.v);
  for (const auto& i : ckt.isources()) collect(i.i);
  std::sort(bp.begin(), bp.end());
  // Dedupe corner times closer than a femtosecond-scale epsilon: distinct
  // Pwl corners that close together cannot be resolved by any sane step.
  const double eps = 1e-18 + 1e-12 * (t1 - t0);
  std::vector<double> out;
  out.reserve(bp.size());
  for (const double t : bp)
    if (out.empty() || t - out.back() > eps) out.push_back(t);
  return out;
}

StepController::StepController(const TransientSpec& spec, const Circuit& ckt)
    : adaptive_(spec.adaptive()),
      t_stop_(spec.t_stop),
      dt_ref_(spec.dt),
      dt_min_(spec.dt / 16.0),
      dt_max_(spec.dt * (spec.adaptive() ? spec.dt_max_factor : 1.0)),
      dt_(spec.dt),
      growth_(spec.max_dt_growth),
      lte_tol_(spec.lte_tol) {
  if (adaptive_)
    breakpoints_ = source_breakpoints(ckt, spec.t_start, spec.t_stop);
}

double StepController::quantize(double dt) const {
  if (dt <= dt_ref_) return std::max(dt, dt_min_);
  // Snap DOWN to dt_ref * 2^k so the trapezoidal matrix (and the Newton
  // base Jacobian) is reused across every step on the same rung.
  const int k = static_cast<int>(std::floor(std::log2(dt / dt_ref_)));
  return std::min(dt_ref_ * std::ldexp(1.0, k), dt_max_);
}

bool StepController::done(double t0) const {
  return t0 >= t_stop_ - 1e-6 * dt_ref_;
}

double StepController::step_size(double t0) const {
  double h = std::min(dt_, t_stop_ - t0);
  if (adaptive_ && !breakpoints_.empty()) {
    // Monotone cursor: t0 only moves forward within a run.
    while (bp_cursor_ < breakpoints_.size() &&
           breakpoints_[bp_cursor_] <= t0 + 1e-6 * dt_ref_)
      ++bp_cursor_;
    if (bp_cursor_ < breakpoints_.size()) {
      const double gap = breakpoints_[bp_cursor_] - t0;
      // Never cross the next source corner — unless honoring it would
      // shrink the step below the reference grid, in which case march at
      // dt_ref exactly as the fixed-step run would.
      if (gap >= dt_ref_)
        h = std::min(h, gap);
      else
        h = std::min(dt_ref_, t_stop_ - t0);
    }
  }
  return std::max(h, dt_min_ * 0.5);
}

bool StepController::lte_reject(double h, double est) {
  if (!adaptive_ || est < 0.0) return false;
  if (est > lte_tol_ && h > dt_ref_ * 1.000001) {
    // Shrink to what the estimate says the error can afford (each reject
    // throws away a converged solve, so descending the rungs one at a
    // time is the expensive way down); never by less than half.
    const double fac =
        std::clamp(0.9 * std::sqrt(lte_tol_ / est), 0.1, 0.5);
    dt_ = quantize(std::max(h * fac, dt_ref_));
    return true;
  }
  // Accept. Growth/shrink decisions key off the LTE headroom at the step
  // actually taken; a breakpoint-clamped short step says nothing about the
  // full rung, so it never shrinks the working dt.
  if (est > lte_tol_) {
    // Accepted only because the step was already at the reference floor.
    dt_ = dt_ref_;
    return false;
  }
  const double fac = 0.9 * std::sqrt(lte_tol_ / std::max(est, 1e-300));
  const double next =
      std::clamp(h * std::min(fac, growth_), dt_ref_, dt_max_);
  if (next >= 2.0 * dt_) dt_ = quantize(next);            // Clear headroom.
  else if (h >= dt_ && next < dt_) dt_ = quantize(next);  // Full-rung squeeze.
  return false;
}

bool StepController::newton_backoff(double h) {
  const double next = 0.5 * std::min(h, dt_);
  if (next < dt_min_) return false;
  dt_ = next;
  return true;
}

bool StepController::crossed_breakpoint(double t0, double t1) {
  if (breakpoints_.empty()) return false;
  const auto it =
      std::upper_bound(breakpoints_.begin(), breakpoints_.end(),
                       t0 + 1e-6 * dt_ref_);
  if (it == breakpoints_.end() || *it > t1 + 1e-6 * dt_ref_) return false;
  // The step after a source kink has no predictor history, so the LTE
  // check cannot reject it; taken at the current rung it could stride the
  // whole post-kink edge. Restart from the reference floor and regrow.
  dt_ = dt_ref_;
  return true;
}

}  // namespace dn
