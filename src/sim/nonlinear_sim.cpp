#include "sim/nonlinear_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/deadline.hpp"
#include "util/fault_injection.hpp"
#include "util/metrics.hpp"
#include "util/numeric.hpp"

namespace dn {

namespace {

struct SimCounters {
  obs::Counter& steps;
  obs::Counter& newton_iters;
  obs::Counter& stale_reuse;
  obs::Counter& fresh_factors;
};

SimCounters& counters() {
  static SimCounters c{
      obs::metrics().counter("sim.nonlinear.steps"),
      obs::metrics().counter("sim.nonlinear.newton_iters"),
      obs::metrics().counter("sim.newton.stale_reuse"),
      obs::metrics().counter("sim.newton.fresh_factors")};
  return c;
}

}  // namespace

NonlinearSim::NonlinearSim(const Circuit& ckt, NewtonOptions opts)
    : ckt_(ckt),
      mna_(ckt),
      opts_(opts),
      stale_budget_(opts.stale_jacobian_iters) {
  const std::size_t dim = mna_.dim();

  // Union Jacobian pattern: every G and C slot plus every MOSFET
  // small-signal entry, registered as explicit zeros so Newton restamps
  // only ever write values.
  std::vector<Triplet> pt;
  pt.reserve(mna_.Gs().nnz() + mna_.Cs().nnz() + 6 * ckt.mosfets().size());
  auto add_pattern = [&pt](const SparseMatrix& m) {
    const auto rp = m.row_ptr();
    const auto ci = m.col_idx();
    for (std::size_t r = 0; r < m.rows(); ++r)
      for (std::size_t p = rp[r]; p < rp[r + 1]; ++p)
        pt.push_back({r, ci[p], 0.0});
  };
  add_pattern(mna_.Gs());
  add_pattern(mna_.Cs());
  auto node_or = [this](NodeId n) -> std::ptrdiff_t {
    return n == kGround ? -1 : static_cast<std::ptrdiff_t>(mna_.node_index(n));
  };
  for (const auto& m : ckt.mosfets()) {
    const std::ptrdiff_t d = node_or(m.d), g = node_or(m.g), s = node_or(m.s);
    const std::ptrdiff_t pairs[6][2] = {{d, d}, {d, g}, {d, s},
                                        {s, d}, {s, g}, {s, s}};
    for (const auto& pr : pairs)
      if (pr[0] >= 0 && pr[1] >= 0)
        pt.push_back({static_cast<std::size_t>(pr[0]),
                      static_cast<std::size_t>(pr[1]), 0.0});
  }
  jac_ = SparseMatrix::from_triplets(dim, dim, pt);

  auto build_map = [this](const SparseMatrix& m,
                          std::vector<std::ptrdiff_t>& map) {
    map.clear();
    map.reserve(m.nnz());
    const auto rp = m.row_ptr();
    const auto ci = m.col_idx();
    for (std::size_t r = 0; r < m.rows(); ++r)
      for (std::size_t p = rp[r]; p < rp[r + 1]; ++p)
        map.push_back(jac_.value_index(r, ci[p]));
  };
  build_map(mna_.Gs(), g_map_);
  build_map(mna_.Cs(), c_map_);
  node_diag_.resize(mna_.num_node_vars());
  for (std::size_t i = 0; i < node_diag_.size(); ++i)
    node_diag_[i] = jac_.value_index(i, i);  // Present: gmin stamps them.
  dev_slots_.reserve(ckt.mosfets().size());
  for (const auto& m : ckt.mosfets()) {
    const std::ptrdiff_t d = node_or(m.d), g = node_or(m.g), s = node_or(m.s);
    auto slot = [this](std::ptrdiff_t r, std::ptrdiff_t c) -> std::ptrdiff_t {
      return (r >= 0 && c >= 0) ? jac_.value_index(static_cast<std::size_t>(r),
                                                   static_cast<std::size_t>(c))
                                : -1;
    };
    dev_slots_.push_back({slot(d, d), slot(d, g), slot(d, s),
                          slot(s, d), slot(s, g), slot(s, s)});
    dev_d_.push_back(d);
    dev_g_.push_back(g);
    dev_s_.push_back(s);
    batch_.push_back(m.params);
  }
  const std::size_t nd = batch_.size();
  sweep_.assign(6 * nd, 0.0);
  auto carve = [&](std::size_t k) {
    return std::span<double>(sweep_.data() + k * nd, nd);
  };
  bvd_ = carve(0);
  bvg_ = carve(1);
  bvs_ = carve(2);
  bid_ = carve(3);
  bgm_ = carve(4);
  bgds_ = carve(5);

  base_vals_.assign(jac_.nnz(), 0.0);
  f_.assign(dim, 0.0);
  f0_.assign(dim, 0.0);
  dx_.assign(dim, 0.0);
  cx0_.assign(dim, 0.0);
  cx1_.assign(dim, 0.0);
}

void NonlinearSim::stamp_devices(const Vector& x, Vector* inl,
                                 double jac_scale) const {
  const std::size_t nd = batch_.size();
  if (nd == 0) return;
  // Gather terminal voltages into flat arrays (ground reads 0), run the
  // one vectorizable sweep, then scatter currents and conductances.
  for (std::size_t i = 0; i < nd; ++i) {
    bvd_[i] = dev_d_[i] < 0 ? 0.0 : x[static_cast<std::size_t>(dev_d_[i])];
    bvg_[i] = dev_g_[i] < 0 ? 0.0 : x[static_cast<std::size_t>(dev_g_[i])];
    bvs_[i] = dev_s_[i] < 0 ? 0.0 : x[static_cast<std::size_t>(dev_s_[i])];
  }
  mosfet_eval_batch(batch_, bvd_.data(), bvg_.data(), bvs_.data(), bid_.data(),
                    bgm_.data(), bgds_.data());
  if (inl) {
    // Current id flows drain -> source: out of node d, into node s.
    for (std::size_t i = 0; i < nd; ++i) {
      if (dev_d_[i] >= 0) (*inl)[static_cast<std::size_t>(dev_d_[i])] += bid_[i];
      if (dev_s_[i] >= 0) (*inl)[static_cast<std::size_t>(dev_s_[i])] -= bid_[i];
    }
  }
  if (jac_scale != 0.0) {
    auto jv = jac_.values();
    for (std::size_t i = 0; i < nd; ++i) {
      const double gds = bgds_[i], gm = bgm_[i];
      const double dvs = -(gm + gds);  // dId/dVs.
      const auto& slots = dev_slots_[i];
      const double vals[6] = {gds, gm, dvs, -gds, -gm, -dvs};
      for (int k = 0; k < 6; ++k)
        if (slots[static_cast<std::size_t>(k)] >= 0)
          jv[static_cast<std::size_t>(slots[static_cast<std::size_t>(k)])] +=
              jac_scale * vals[k];
    }
  }
}

void NonlinearSim::factor_jacobian() const {
  if (solver_) {
    // Numeric-only refactor (SystemSolver re-pivots internally if the
    // replayed pivot sequence fails for the new values).
    solver_->refactor(jac_).throw_if_error();
    return;
  }
  auto s = SystemSolver::make(jac_, opts_.solver);
  s.status().throw_if_error();
  solver_.emplace(std::move(*s));
}

template <class Assemble>
bool NonlinearSim::newton(Vector& x, Assemble&& assemble,
                          NewtonTally& tally) const {
  const std::size_t dim = mna_.dim();
  const std::size_t nv = mna_.num_node_vars();
  double prev_dv = std::numeric_limits<double>::infinity();
  for (int it = 0; it < opts_.max_iterations; ++it) {
    ++tally.iters;
    const bool fresh = !have_factor_ || stale_budget_ <= 0 ||
                       stale_solves_ >= stale_budget_ ||
                       it >= opts_.max_iterations / 2;
    assemble(x, fresh);
    if (fresh) {
      factor_jacobian();
      have_factor_ = true;
      stale_solves_ = 0;
      ++tally.fresh;
    } else {
      ++tally.stale;
    }

    dx_ = f_;
    solver_->solve_in_place(dx_);
    ++stale_solves_;

    double max_dv = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      double step = dx_[i];
      if (i < nv) {
        step = std::clamp(step, -kNewtonVoltageLimit, kNewtonVoltageLimit);
        max_dv = std::max(max_dv, std::abs(step));
      }
      x[i] -= step;
    }
    if (max_dv < opts_.v_tol) return true;
    // Modified-Newton escalation: a stale factor that stops contracting
    // (or is taking clamped full-limit steps) gets replaced next
    // iteration instead of burning the whole budget.
    if (!fresh && (max_dv >= prev_dv || max_dv >= kNewtonVoltageLimit))
      have_factor_ = false;
    prev_dv = max_dv;
  }
  have_factor_ = false;
  return false;
}

Vector NonlinearSim::dc_solve(double t, const Vector* hint) const {
  static obs::Counter& c_hits = obs::metrics().counter("sim.warm_start.hits");
  static obs::Counter& c_misses =
      obs::metrics().counter("sim.warm_start.misses");
  const Vector b = mna_.rhs(t);
  const std::size_t dim = mna_.dim();
  const std::size_t nv = mna_.num_node_vars();
  const auto gvals = mna_.Gs().values();
  // Solves G x + i_nl(x) = b with an extra `g_extra` to ground on every
  // node row. True on convergence; x is the guess on entry.
  auto newton_dc = [&](Vector& x, double g_extra) {
    // g_extra differs between gmin rungs, so a factor from a previous
    // call is never reusable here.
    have_factor_ = false;
    NewtonTally tally;
    const bool ok = newton(
        x,
        [&](const Vector& xi, bool fresh) {
          deadline_checkpoint("NonlinearSim::newton_dc");
          // Residual F = G x + i_nl(x) + g_extra * v - b; when refreshing,
          // the same batched device sweep also stamps the Jacobian.
          mna_.Gs().matvec(xi, f_);
          for (std::size_t i = 0; i < nv; ++i) f_[i] += g_extra * xi[i];
          for (std::size_t i = 0; i < dim; ++i) f_[i] -= b[i];
          if (fresh) {
            auto jv = jac_.values();
            std::fill(jv.begin(), jv.end(), 0.0);
            for (std::size_t i = 0; i < gvals.size(); ++i)
              jv[static_cast<std::size_t>(g_map_[i])] += gvals[i];
            for (std::size_t i = 0; i < nv; ++i)
              jv[static_cast<std::size_t>(node_diag_[i])] += g_extra;
          }
          stamp_devices(xi, &f_, fresh ? 1.0 : 0.0);
        },
        tally);
    counters().fresh_factors.add(tally.fresh);
    counters().stale_reuse.add(tally.stale);
    return ok;
  };
  if (hint && hint->size() == dim) {
    // Warm start: direct Newton from the previous operating point. The
    // solution is always re-converged to v_tol — the hint only skips the
    // gmin ladder, it never substitutes for convergence.
    Vector x = *hint;
    if (newton_dc(x, 0.0) && all_finite(x)) {
      c_hits.add();
      return x;
    }
    c_misses.add();
  }
  Vector x(dim, 0.0);
  // gmin stepping: relax from a heavily grounded problem to the real one.
  for (double g = 1e-2; g >= 1e-13; g /= 10.0) {
    if (!newton_dc(x, g) && g < 1e-11)
      throw ConvergenceError("NonlinearSim: DC gmin stepping diverged");
  }
  if (!newton_dc(x, 0.0))
    throw ConvergenceError("NonlinearSim: DC operating point did not converge");
  if (!all_finite(x))
    throw NumericError("NonlinearSim: non-finite DC operating point");
  return x;
}

StatusOr<Vector> NonlinearSim::try_dc_solve(double t, const Vector* hint) const {
  stale_budget_ = opts_.stale_jacobian_iters;  // Standalone DC: no spec.
  try {
    return dc_solve(t, hint);
  } catch (const ConvergenceError& e) {
    return Status::NumericFailure(e.what());
  } catch (const std::exception& e) {
    return status_from_exception(e);
  }
}

TransientResult NonlinearSim::run_impl(const TransientSpec& spec,
                                       const RunControl& rc) const {
  const std::size_t dim = mna_.dim();

  // Chaos probe: a deterministic stand-in for the Newton divergences a
  // production corner would hit (bad initial conditions, device-model
  // discontinuities). Thrown before any work so an injected run and a
  // real divergence take the same recovery path.
  if (fault::should_fail(fault::Site::kNewton))
    throw ConvergenceError("injected fault: Newton divergence");

  stale_budget_ = spec.stale_jacobian_iters >= 0 ? spec.stale_jacobian_iters
                                                 : opts_.stale_jacobian_iters;
  Vector x0 = dc_solve(spec.t_start, rc.dc_hint);
  have_factor_ = false;
  stale_solves_ = 0;

  // Trapezoidal residual at new state x1:
  //   F(x1) = C (x1 - x0)/dt + (G x1 + i(x1))/2 + (G x0 + i(x0))/2
  //           - (b0 + b1)/2
  // The base Jacobian C/dt + G/2 is constant per step size; device
  // conductances add 0.5x. Rebuilt only when the controller changes rung.
  const auto gvals = mna_.Gs().values();
  const auto cvals = mna_.Cs().values();
  double matrix_dt = 0.0;
  double inv_dt = 0.0;
  auto set_step_matrix = [&](double h) {
    if (h == matrix_dt) return;
    matrix_dt = h;
    inv_dt = 1.0 / h;
    std::fill(base_vals_.begin(), base_vals_.end(), 0.0);
    for (std::size_t i = 0; i < gvals.size(); ++i)
      base_vals_[static_cast<std::size_t>(g_map_[i])] += 0.5 * gvals[i];
    for (std::size_t i = 0; i < cvals.size(); ++i)
      base_vals_[static_cast<std::size_t>(c_map_[i])] += inv_dt * cvals[i];
    have_factor_ = false;  // The factored Jacobian embeds the old C/dt.
  };

  NewtonTally tally;
  TransientResult result = march_transient(
      spec, ckt_, mna_, std::move(x0), "NonlinearSim",
      [&](const TransientStep& s, Vector& x1) {
        set_step_matrix(s.h);
        mna_.Gs().matvec(s.x0, f0_);  // f0_ = G x0 + i(x0)
        stamp_devices(s.x0, &f0_, 0.0);
        mna_.Cs().matvec(s.x0, cx0_);
        // Initial guess: linear extrapolation when history exists (also
        // the chord method's best friend), else the previous point.
        x1 = s.x0;
        if (s.x_prev)
          for (std::size_t i = 0; i < dim; ++i)
            x1[i] = s.x0[i] + s.r * (s.x0[i] - (*s.x_prev)[i]);
        return newton(
            x1,
            [&](const Vector& x, bool fresh) {
              // Restamp values over the fixed pattern when fresh: base +
              // 0.5 * device Jacobian; the same batched device sweep feeds
              // the residual.
              mna_.Gs().matvec(x, f_);
              if (fresh) {
                auto jv = jac_.values();
                std::copy(base_vals_.begin(), base_vals_.end(), jv.begin());
              }
              stamp_devices(x, &f_, fresh ? 0.5 : 0.0);
              mna_.Cs().matvec(x, cx1_);
              // f_ holds G x1 + i(x1); build the full residual.
              for (std::size_t i = 0; i < dim; ++i)
                f_[i] = (cx1_[i] - cx0_[i]) * inv_dt + 0.5 * f_[i] +
                        0.5 * f0_[i] - 0.5 * (s.b0[i] + s.b1[i]);
            },
            tally);
      });
  SimCounters& c = counters();
  c.newton_iters.add(tally.iters);
  c.steps.add(result.num_points() - 1);
  c.fresh_factors.add(tally.fresh);
  c.stale_reuse.add(tally.stale);
  return result;
}

StatusOr<TransientResult> NonlinearSim::try_run(const TransientSpec& spec,
                                                const RunControl& rc) const {
  if (Status s = spec.validate(); !s.ok()) return s;
  try {
    return run_impl(spec, rc);
  } catch (const ConvergenceError& e) {
    return Status::NumericFailure(e.what());
  } catch (const std::exception& e) {
    return status_from_exception(e);
  }
}

}  // namespace dn
