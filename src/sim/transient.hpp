// Shared transient analysis: the step specification (fixed or
// LTE-adaptive), the sampled result container, and the one stepping loop
// both simulators run with their own per-step solve plugged in.
//
// The spec is validated through Status (never throws): the simulators'
// try_run() entry points surface a bad time range as kInvalidArgument
// instead of unwinding. `lte_tol == 0` (the default) reproduces the
// classic fixed-step trapezoidal grid exactly; `lte_tol > 0` enables
// local-truncation-error control where `dt` becomes the REFERENCE step —
// the accuracy floor the adaptive run must never undercut — and steps
// grow in power-of-two rungs above it on smooth intervals.
#pragma once

#include <functional>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/mna.hpp"
#include "util/status.hpp"
#include "waveform/pwl.hpp"

namespace dn {

/// Adaptive steps never exceed dt * kDtMaxFactor: settled tails stride at
/// 512x the reference grid, while LTE growth is still earned one
/// power-of-two rung at a time.
constexpr double kDtMaxFactor = 512.0;

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

/// One step attempt, as march_transient hands it to a simulator's solve.
struct TransientStep {
  double h;          // Step size.
  double t1;         // End of the step: t0 + h, clamped to t_stop.
  const Vector& x0;  // Accepted MNA state at t0.
  const Vector& b0;  // MNA right-hand side at t0 ...
  const Vector& b1;  // ... and at t1.
  /// Accepted state one step (h_prev) before x0, or null when the
  /// predictor has no history: the first step, after a source kink, after
  /// a Newton back-off. `r` = h / h_prev when set.
  const Vector* x_prev;
  double r;
};

/// A simulator's per-step solve: writes the trapezoidal solution at t1
/// into x1. False means the step did not converge (Newton); the loop then
/// halves the step, or fails once it cannot shrink further.
using StepSolve = std::function<bool(const TransientStep&, Vector& x1)>;

/// The stepping loop both simulators run (DESIGN.md §12): marches `mna`
/// from the operating point x0 at spec.t_start to spec.t_stop, one
/// `solve` per attempt, and records every accepted point.
///
/// Step policy (fixed grid when spec.lte_tol == 0):
///   - Adaptive steps sit on power-of-two rungs of the reference step
///     (dt * 2^k, k >= 0), so a simulator refactors its step matrix only
///     on rung changes, not every step.
///   - Source breakpoints (the kinks of every V/I source Pwl) clamp steps:
///     a step never crosses the next one unless honoring it would shrink
///     the step below the reference grid, and the step after a kink
///     restarts at the reference step.
///   - LTE estimate: corrector vs linear extrapolation of the two previous
///     accepted points, damped by h/(h + h_prev). Reject and shrink when
///     above lte_tol (unless already at the reference floor), grow when
///     comfortably below.
///
/// `sim` names the simulator in deadline and error messages. Throws
/// DeadlineError on an expired ambient deadline (polled every 64th
/// attempt), ConvergenceError when a failed step cannot shrink further,
/// NumericError on a non-finite state or a runaway attempt count. Flushes
/// the `sim.lte.*` metrics of a completed run; the accepted-step count is
/// result.num_points() - 1.
TransientResult march_transient(const TransientSpec& spec, const Circuit& ckt,
                                const MnaSystem& mna, Vector x0,
                                const char* sim, const StepSolve& solve);

}  // namespace dn
