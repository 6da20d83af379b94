// Shared transient-analysis types: the step specification (fixed or
// LTE-adaptive), the sampled result container, and the step-size
// controller both simulators share.
//
// The spec is validated through Status (never throws): the simulators'
// try_run() entry points surface a bad time range as kInvalidArgument
// instead of unwinding. `lte_tol == 0` (the default) reproduces the
// classic fixed-step trapezoidal grid exactly; `lte_tol > 0` enables
// local-truncation-error control where `dt` becomes the REFERENCE step —
// the accuracy floor the adaptive run must never undercut — and steps
// grow in power-of-two rungs above it on smooth intervals.
#pragma once

#include <vector>

#include "circuit/circuit.hpp"
#include "util/status.hpp"
#include "waveform/pwl.hpp"

namespace dn {

struct TransientSpec {
  double t_start = 0.0;
  double t_stop = 0.0;
  double dt = 0.0;  // Fixed step, or the reference (minimum) adaptive step.

  /// Local-truncation-error bound per accepted step [V]. 0 = fixed step.
  double lte_tol = 0.0;
  /// Max accepted-step growth per step (adaptive only). 4x regrows the
  /// rung in a few steps after a source-kink reset without the reject
  /// churn an 8x jump causes at sharp features; the LTE reject path
  /// bounds the cost of overshooting either way.
  double max_dt_growth = 4.0;
  /// Steps never exceed dt * dt_max_factor (adaptive only). The default
  /// lets settled tails stride at 512x the reference grid; LTE growth is
  /// still earned one power-of-two rung at a time.
  double dt_max_factor = 512.0;
  /// Chord-Newton budget for nonlinear sims: consecutive solves allowed on
  /// a stale factored Jacobian before a fresh stamp+factor. -1 (default)
  /// inherits the sim's NewtonOptions; 0 forces classic full Newton.
  /// Ignored by LinearSim. Carried on the spec so flow code that builds
  /// its own gate sims (devices/gate.hpp) can be steered per family.
  int stale_jacobian_iters = -1;

  bool adaptive() const { return lte_tol > 0.0; }

  /// kInvalidArgument with a specific message on any bad field.
  Status validate() const;

  /// Fixed-grid step count; kInvalidArgument on a bad range or a grid
  /// over 2e7 steps (almost always a units mistake).
  StatusOr<int> num_steps() const;
};

/// Transient result: per-node voltages at sampled (not necessarily
/// uniform) time points. Pwl handles non-uniform grids natively, so
/// waveform() consumers are agnostic to how the run chose its steps.
class TransientResult {
 public:
  explicit TransientResult(int num_nodes)
      : v_(static_cast<std::size_t>(num_nodes)) {}

  void reserve(std::size_t points);

  std::size_t num_points() const { return time_.size(); }
  const std::vector<double>& time() const { return time_; }

  /// Appends a sample at time t (must be strictly after the last sample);
  /// returns its index. Node values default to 0 until written via v().
  std::size_t add_sample(double t);

  double& v(NodeId n, std::size_t k) {
    return v_[static_cast<std::size_t>(n)][k];
  }
  double v(NodeId n, std::size_t k) const {
    return v_[static_cast<std::size_t>(n)][k];
  }

  /// Node voltage as a waveform over the sampled points.
  Pwl waveform(NodeId n) const {
    return Pwl(time_, v_[static_cast<std::size_t>(n)]);
  }

  /// The converged operating point the run started from (MNA state vector,
  /// node voltages + branch currents) — the warm-start seed for the next
  /// sim of the same circuit topology.
  const std::vector<double>& initial_state() const { return initial_state_; }
  void set_initial_state(std::vector<double> x) {
    initial_state_ = std::move(x);
  }

 private:
  std::vector<double> time_;
  std::vector<std::vector<double>> v_;  // [node][sample]; node 0 = ground.
  std::vector<double> initial_state_;
};

/// Step-size controller shared by LinearSim and NonlinearSim.
///
/// Policy (DESIGN.md §12):
///   - Fixed mode (lte_tol == 0): steps march the uniform spec grid.
///   - Adaptive: the working dt moves on power-of-two rungs of the
///     reference step (dt_ref * 2^k, k >= 0), so the trapezoidal system
///     matrix refactors only on rung changes, not every step.
///   - Source breakpoints (Pwl corner times of every V/I source) clamp
///     steps: a step never crosses the next breakpoint unless doing so
///     would shrink it below dt_ref — i.e. resolution is never worse than
///     the fixed-step reference, even through densely-sampled noise
///     waveforms driving a receiver input.
///   - LTE estimate: predictor-corrector distance against linear
///     extrapolation of the two previous accepted points, damped by
///     h/(h + h_prev). Reject and shrink when above lte_tol (unless
///     already at the reference floor), grow when comfortably below.
class StepController {
 public:
  StepController(const TransientSpec& spec, const Circuit& ckt);

  /// Step size for the step starting at t0 (> 0; respects t_stop,
  /// breakpoints and the current rung).
  double step_size(double t0) const;

  bool done(double t0) const;

  /// True when the step [t0, t0+h] must be redone with a smaller step.
  /// Updates the working dt either way. `est` is the sim's LTE estimate;
  /// pass a negative value when no predictor history exists (always
  /// accepted).
  bool lte_reject(double h, double est);

  /// Newton failed at step size h: halve (below the reference floor if
  /// needed — convergence rescue only). False when no further shrink is
  /// possible and the failure is final.
  bool newton_backoff(double h);

  /// Call after accepting a step that landed on a source breakpoint (or
  /// crossed one): the source derivative is discontinuous there, so the
  /// caller must drop its predictor history.
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

/// Sorted, deduplicated union of every V/I source Pwl corner time strictly
/// inside (t0, t1).
std::vector<double> source_breakpoints(const Circuit& ckt, double t0,
                                       double t1);

}  // namespace dn
