#include "sim/linear_sim.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "util/metrics.hpp"

namespace dn {

LinearSim::LinearSim(const Circuit& ckt, SolverOptions solver)
    : ckt_(ckt), mna_(ckt), solver_(solver) {}

Vector LinearSim::dc_solve(double t) const {
  // At DC the capacitors are open: solve G x = b(t). gmin (stamped in the
  // MNA assembly) keeps capacitively-floating nodes well defined.
  auto lu = SystemSolver::make(mna_.Gs(), solver_);
  lu.status().throw_if_error();
  return lu->solve(mna_.rhs(t));
}

StatusOr<Vector> LinearSim::try_dc_solve(double t) const {
  if (!ckt_.is_linear())
    return Status::InvalidArgument(
        "LinearSim: circuit contains MOSFETs; use NonlinearSim");
  try {
    return dc_solve(t);
  } catch (const std::exception& e) {
    return status_from_exception(e);
  }
}

TransientResult LinearSim::run_impl(const TransientSpec& spec) const {
  static obs::Counter& c_steps = obs::metrics().counter("sim.linear.steps");

  // Trapezoidal:  (C/dt + G/2) x1 = C x0 / dt - G x0 / 2 + (b0 + b1)/2.
  // The LHS matrix depends only on the step size, and the adaptive
  // controller revisits the same power-of-two rungs many times per run
  // (dip into a transition, regrow after it). Factoring a multi-thousand-
  // node sparse matrix is the dominant linear-sim cost, so each distinct
  // step size is factored once and every revisit reuses it. Breakpoint-
  // clamped odd step sizes past the cap share one refactoring scratch
  // slot, so a pathological source waveform cannot hoard factorizations.
  constexpr std::size_t kMaxCachedRungs = 24;
  std::vector<std::pair<double, SystemSolver>> lus;
  lus.reserve(kMaxCachedRungs);
  std::optional<SystemSolver> scratch;
  SystemSolver* lu = nullptr;
  double matrix_dt = 0.0;
  auto set_step_matrix = [&](double h) {
    if (lu && h == matrix_dt) return;
    matrix_dt = h;
    for (auto& [dt, cached] : lus)
      if (dt == h) {
        lu = &cached;
        return;
      }
    const SparseMatrix a_lhs =
        SparseMatrix::combine(1.0 / h, mna_.Cs(), 0.5, mna_.Gs());
    if (lus.empty()) {
      // Only the first factorization pays the symbolic analysis; every
      // later step size clones it and replays numerics on the same
      // pattern (every rung's LHS shares the C/G sparsity union).
      auto made = SystemSolver::make(a_lhs, solver_);
      made.status().throw_if_error();
      lus.emplace_back(h, std::move(*made));
      lu = &lus.back().second;
    } else if (lus.size() < kMaxCachedRungs) {
      SystemSolver cloned = lus.front().second;
      cloned.refactor(a_lhs).throw_if_error();
      lus.emplace_back(h, std::move(cloned));
      lu = &lus.back().second;
    } else {
      if (!scratch) scratch.emplace(lus.front().second);
      scratch->refactor(a_lhs).throw_if_error();
      lu = &*scratch;
    }
  };

  const std::size_t dim = mna_.dim();
  Vector gx(dim, 0.0), cx(dim, 0.0);
  TransientResult result = march_transient(
      spec, ckt_, mna_, dc_solve(spec.t_start), "LinearSim",
      [&](const TransientStep& s, Vector& x1) {
        set_step_matrix(s.h);
        const double inv_dt = 1.0 / s.h;
        mna_.Cs().matvec(s.x0, cx);
        mna_.Gs().matvec(s.x0, gx);
        x1.resize(dim);
        for (std::size_t i = 0; i < dim; ++i)
          x1[i] = inv_dt * cx[i] - 0.5 * gx[i] + 0.5 * (s.b0[i] + s.b1[i]);
        lu->solve_in_place(x1);
        return true;
      });
  c_steps.add(result.num_points() - 1);
  return result;
}

StatusOr<TransientResult> LinearSim::try_run(const TransientSpec& spec) const {
  if (!ckt_.is_linear())
    return Status::InvalidArgument(
        "LinearSim: circuit contains MOSFETs; use NonlinearSim");
  if (Status s = spec.validate(); !s.ok()) return s;
  try {
    return run_impl(spec);
  } catch (const std::exception& e) {
    return status_from_exception(e);
  }
}

}  // namespace dn
