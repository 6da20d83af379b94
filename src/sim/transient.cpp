#include "sim/transient.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>

#include "util/deadline.hpp"
#include "util/metrics.hpp"
#include "util/numeric.hpp"

namespace dn {

Status TransientSpec::validate() const {
  if (!(t_stop > t_start) || !(dt > 0))
    return Status::InvalidArgument("TransientSpec: bad time range/step");
  if (!(lte_tol >= 0) || !std::isfinite(lte_tol))
    return Status::InvalidArgument("TransientSpec: lte_tol must be >= 0");
  if (stale_jacobian_iters < -1 || stale_jacobian_iters > 1000)
    return Status::InvalidArgument(
        "TransientSpec: stale_jacobian_iters must be in [-1, 1000]");
  if (adaptive() && (!(max_dt_growth > 1.0) || !(max_dt_growth <= 64.0)))
    return Status::InvalidArgument(
        "TransientSpec: max_dt_growth must be in (1, 64]");
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

namespace {

/// Step-size controller of march_transient (policy in transient.hpp).
class StepController {
 public:
  StepController(const TransientSpec& spec, const Circuit& ckt);

  /// Step size for the step starting at t0 (> 0; respects t_stop,
  /// breakpoints and the current rung).
  double step_size(double t0) const;

  bool done(double t0) const;

  /// True when the step [t0, t0+h] must be redone with a smaller step.
  /// Updates the working dt either way. `est` is the LTE estimate; a
  /// negative value means no predictor history (always accepted).
  bool lte_reject(double h, double est);

  /// A solve failed at step size h: halve (below the reference floor if
  /// needed — convergence rescue only). False when no further shrink is
  /// possible and the failure is final.
  bool newton_backoff(double h);

  /// Call after accepting a step that landed on a source breakpoint (or
  /// crossed one): the source derivative is discontinuous there, so the
  /// predictor history must be dropped.
  bool crossed_breakpoint(double t0, double t1);

  bool adaptive() const { return adaptive_; }

 private:
  double quantize(double dt) const;  // Snap down to a dt_ref * 2^k rung.

  bool adaptive_ = false;
  double t_stop_ = 0.0;
  double dt_ref_ = 0.0;   // Reference step = accuracy floor.
  double dt_min_ = 0.0;   // Newton-rescue floor (dt_ref / 16).
  double dt_max_ = 0.0;
  double dt_ = 0.0;       // Current working step.
  double growth_ = 2.0;
  double lte_tol_ = 0.0;
  std::vector<double> breakpoints_;  // Sorted, within (t_start, t_stop).
  mutable std::size_t bp_cursor_ = 0;
};

/// Sorted, deduplicated union of every V/I source Pwl kink time strictly
/// inside (t0, t1).
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
      dt_max_(spec.dt * (spec.adaptive() ? kDtMaxFactor : 1.0)),
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

}  // namespace

TransientResult march_transient(const TransientSpec& spec, const Circuit& ckt,
                                const MnaSystem& mna, Vector x0,
                                const char* sim, const StepSolve& solve) {
  static obs::Counter& c_accepted =
      obs::metrics().counter("sim.lte.steps_accepted");
  static obs::Counter& c_rejected =
      obs::metrics().counter("sim.lte.steps_rejected");
  static obs::Histogram& h_dt =
      obs::metrics().histogram("sim.lte.dt_accepted_s");
  const std::string where = std::string(sim) + "::run";

  TransientResult result(ckt.num_nodes());
  if (!spec.adaptive())
    result.reserve(static_cast<std::size_t>(*spec.num_steps()) + 1);
  auto record = [&](const Vector& x, double t) {
    const std::size_t k = result.add_sample(t);
    for (NodeId n = 1; n < ckt.num_nodes(); ++n)
      result.v(n, k) = mna.node_voltage(x, n);
  };
  record(x0, spec.t_start);
  result.set_initial_state(x0);

  StepController ctl(spec, ckt);
  Vector b0, b1, x1;
  mna.rhs_into(spec.t_start, b0);
  // Per-run counter accumulation: the sharded atomics are cheap but not
  // free at several counter ops per step; one flush at run end keeps the
  // inner loop free of shared-cache-line traffic.
  std::uint64_t n_steps = 0, n_rej = 0;
  struct DtBin {
    double h = 0.0;
    std::uint64_t n = 0;
  };
  std::array<DtBin, 24> dt_bins{};
  std::size_t n_dt_bins = 0;
  auto record_dt = [&](double h) {
    for (std::size_t i = 0; i < n_dt_bins; ++i)
      if (dt_bins[i].h == h) {
        ++dt_bins[i].n;
        return;
      }
    if (n_dt_bins < dt_bins.size()) {
      dt_bins[n_dt_bins++] = {h, 1};
      return;
    }
    h_dt.record(h);  // Bin overflow: record directly.
  };

  // Predictor history (previous accepted point) for the LTE estimate and
  // the solve's initial guess. Invalidated across source-waveform corners,
  // where the derivative is discontinuous.
  Vector x_prev;
  double h_prev = 0.0;
  bool have_prev = false;

  const std::size_t nv = mna.num_node_vars();
  double t0 = spec.t_start;
  std::uint64_t attempts = 0;
  while (!ctl.done(t0)) {
    // Deadline polling hoisted to every 64th attempt: with a deadline
    // installed each checkpoint is a clock read, which at sub-µs steps
    // was measurable. 64 steps of slack keeps cancellation latency well
    // under a millisecond.
    if ((attempts & 63) == 0) deadline_checkpoint(where.c_str());
    if (++attempts > 25'000'000)
      throw NumericError(std::string(sim) + ": adaptive step limit exceeded");
    const double h = ctl.step_size(t0);
    double t1 = t0 + h;
    if (t1 > spec.t_stop) t1 = spec.t_stop;
    mna.rhs_into(t1, b1);

    const bool history = have_prev && h_prev > 0.0;
    const double r = history ? h / h_prev : 0.0;
    if (!solve({h, t1, x0, b0, b1, history ? &x_prev : nullptr, r}, x1)) {
      // The solve already tried a fresh factor; the next rung of the
      // fallback ladder is a smaller step, then failure.
      if (ctl.newton_backoff(h)) {
        have_prev = false;
        continue;
      }
      throw ConvergenceError(std::string(sim) + ": Newton diverged at t = " +
                             std::to_string(t1));
    }
    if (!all_finite(x1))
      throw NumericError(std::string(sim) + ": non-finite solution at t = " +
                         std::to_string(t1));

    double est = -1.0;
    if (ctl.adaptive() && history) {
      double dev = 0.0;
      for (std::size_t i = 0; i < nv; ++i) {
        const double pred = x0[i] + r * (x0[i] - x_prev[i]);
        dev = std::max(dev, std::abs(x1[i] - pred));
      }
      est = dev * (h / (h + h_prev));
    }
    if (ctl.lte_reject(h, est)) {
      ++n_rej;
      continue;  // Discard x1; the controller shrank the working step.
    }

    ++n_steps;
    record_dt(h);
    const bool kink = ctl.crossed_breakpoint(t0, t1);
    // Rotate the state buffers instead of reallocating: x_prev takes the
    // old x0, x0 takes the accepted x1, and x1 inherits a dead buffer the
    // next solve overwrites.
    std::swap(x_prev, x0);
    h_prev = h;
    have_prev = !kink;
    std::swap(x0, x1);
    std::swap(b0, b1);
    t0 = t1;
    record(x0, t0);
  }
  c_accepted.add(n_steps);
  if (n_rej) c_rejected.add(n_rej);
  for (std::size_t i = 0; i < n_dt_bins; ++i)
    h_dt.record_n(dt_bins[i].h, dt_bins[i].n);
  return result;
}

}  // namespace dn
