#include "sim/nonlinear_sim.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/deadline.hpp"
#include "util/fault_injection.hpp"
#include "util/metrics.hpp"
#include "util/numeric.hpp"

namespace dn {

namespace {

struct SimCounters {
  obs::Counter& steps;
  obs::Counter& newton_iters;
  obs::Counter& lte_accepted;
  obs::Counter& lte_rejected;
  obs::Counter& stale_reuse;
  obs::Counter& fresh_factors;
  obs::Histogram& dt_accepted;
};

SimCounters& counters() {
  static SimCounters c{
      obs::metrics().counter("sim.nonlinear.steps"),
      obs::metrics().counter("sim.nonlinear.newton_iters"),
      obs::metrics().counter("sim.lte.steps_accepted"),
      obs::metrics().counter("sim.lte.steps_rejected"),
      obs::metrics().counter("sim.newton.stale_reuse"),
      obs::metrics().counter("sim.newton.fresh_factors"),
      obs::metrics().histogram("sim.lte.dt_accepted_s")};
  return c;
}

}  // namespace

NonlinearSim::NonlinearSim(const Circuit& ckt, NewtonOptions opts)
    : ckt_(ckt),
      mna_(ckt, opts.gmin),
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
  bvd_ = arena_.make_span<double>(nd);
  bvg_ = arena_.make_span<double>(nd);
  bvs_ = arena_.make_span<double>(nd);
  bid_ = arena_.make_span<double>(nd);
  bgm_ = arena_.make_span<double>(nd);
  bgds_ = arena_.make_span<double>(nd);

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

bool NonlinearSim::newton_dc(Vector& x, const Vector& b, double g_extra) const {
  const std::size_t dim = mna_.dim();
  const std::size_t nv = mna_.num_node_vars();
  const auto gvals = mna_.Gs().values();
  SimCounters& c = counters();
  // g_extra differs between gmin rungs, so a factor from a previous call
  // is never reusable here.
  have_factor_ = false;
  double prev_dv = std::numeric_limits<double>::infinity();
  for (int it = 0; it < opts_.max_iterations; ++it) {
    deadline_checkpoint("NonlinearSim::newton_dc");
    const bool fresh = !have_factor_ || stale_budget_ <= 0 ||
                       stale_solves_ >= stale_budget_ ||
                       it >= opts_.max_iterations / 2;
    // Residual F = G x + i_nl(x) + g_extra * v - b; when refreshing, the
    // same batched device sweep also stamps the Jacobian.
    mna_.Gs().matvec(x, f_);
    for (std::size_t i = 0; i < nv; ++i) f_[i] += g_extra * x[i];
    for (std::size_t i = 0; i < dim; ++i) f_[i] -= b[i];
    if (fresh) {
      auto jv = jac_.values();
      std::fill(jv.begin(), jv.end(), 0.0);
      for (std::size_t i = 0; i < gvals.size(); ++i)
        jv[static_cast<std::size_t>(g_map_[i])] += gvals[i];
      for (std::size_t i = 0; i < nv; ++i)
        jv[static_cast<std::size_t>(node_diag_[i])] += g_extra;
      stamp_devices(x, &f_, 1.0);
      factor_jacobian();
      have_factor_ = true;
      stale_solves_ = 0;
      c.fresh_factors.add();
    } else {
      stamp_devices(x, &f_, 0.0);
      c.stale_reuse.add();
    }

    dx_ = f_;
    solver_->solve_in_place(dx_);
    ++stale_solves_;

    double max_dv = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      double step = dx_[i];
      if (i < nv) {
        step = std::clamp(step, -opts_.v_limit, opts_.v_limit);
        max_dv = std::max(max_dv, std::abs(step));
      }
      x[i] -= step;
    }
    if (max_dv < opts_.v_tol) return true;
    // Stale factor not contracting: force a fresh stamp next iteration.
    if (!fresh && (max_dv >= prev_dv || max_dv >= opts_.v_limit))
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
  if (hint && hint->size() == mna_.dim()) {
    // Warm start: direct Newton from the previous operating point. The
    // solution is always re-converged to v_tol — the hint only skips the
    // gmin ladder, it never substitutes for convergence.
    Vector x = *hint;
    if (newton_dc(x, b, 0.0) && all_finite(x)) {
      c_hits.add();
      return x;
    }
    c_misses.add();
  }
  Vector x(mna_.dim(), 0.0);
  // gmin stepping: relax from a heavily grounded problem to the real one.
  for (double g = 1e-2; g >= 1e-13; g /= 10.0) {
    if (!newton_dc(x, b, g) && g < 1e-11)
      throw ConvergenceError("NonlinearSim: DC gmin stepping diverged");
  }
  if (!newton_dc(x, b, 0.0))
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
  const std::size_t nv = mna_.num_node_vars();
  SimCounters& c = counters();

  // Chaos probe: a deterministic stand-in for the Newton divergences a
  // production corner would hit (bad initial conditions, device-model
  // discontinuities). Thrown before any work so an injected run and a
  // real divergence take the same recovery path.
  if (fault::should_fail(fault::Site::kNewton))
    throw ConvergenceError("injected fault: Newton divergence");

  stale_budget_ = spec.stale_jacobian_iters >= 0 ? spec.stale_jacobian_iters
                                                 : opts_.stale_jacobian_iters;
  Vector x0 = dc_solve(spec.t_start, rc.dc_hint);

  TransientResult result(ckt_.num_nodes());
  if (!spec.adaptive())
    result.reserve(static_cast<std::size_t>(*spec.num_steps()) + 1);
  auto record = [&](const Vector& x, double t) {
    const std::size_t k = result.add_sample(t);
    for (NodeId n = 1; n < ckt_.num_nodes(); ++n)
      result.v(n, k) = mna_.node_voltage(x, n);
  };
  record(x0, spec.t_start);
  result.set_initial_state(x0);

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

  // One Newton solve sequence for the step [t0, t0+h]; x1 is the initial
  // guess on entry, the converged state on success.
  Vector x1(dim, 0.0);
  Vector b0, b1;
  mna_.rhs_into(spec.t_start, b0);
  // Per-run counter accumulation: the sharded atomics are cheap but not
  // free at ~10 counter ops per step; one flush at run end keeps the
  // inner loop free of shared-cache-line traffic.
  std::uint64_t newton_iters = 0;
  std::uint64_t n_fresh = 0, n_stale = 0, n_steps = 0, n_rej = 0;
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
    c.dt_accepted.record(h);  // Bin overflow: record directly.
  };
  auto newton_step = [&]() -> bool {
    double prev_dv = std::numeric_limits<double>::infinity();
    for (int it = 0; it < opts_.max_iterations; ++it) {
      ++newton_iters;
      const bool fresh = !have_factor_ || stale_budget_ <= 0 ||
                         stale_solves_ >= stale_budget_ ||
                         it >= opts_.max_iterations / 2;
      mna_.Gs().matvec(x1, f_);
      if (fresh) {
        // Restamp values over the fixed pattern: base + 0.5 * device
        // Jacobian; the same batched device sweep feeds the residual.
        auto jv = jac_.values();
        std::copy(base_vals_.begin(), base_vals_.end(), jv.begin());
        stamp_devices(x1, &f_, 0.5);
        factor_jacobian();
        have_factor_ = true;
        stale_solves_ = 0;
        ++n_fresh;
      } else {
        stamp_devices(x1, &f_, 0.0);
        ++n_stale;
      }
      mna_.Cs().matvec(x1, cx1_);
      // f_ currently holds G x1 + i(x1); build the full residual.
      for (std::size_t i = 0; i < dim; ++i)
        f_[i] = (cx1_[i] - cx0_[i]) * inv_dt + 0.5 * f_[i] + 0.5 * f0_[i] -
                0.5 * (b0[i] + b1[i]);

      dx_ = f_;
      solver_->solve_in_place(dx_);
      ++stale_solves_;

      double max_dv = 0.0;
      for (std::size_t i = 0; i < dim; ++i) {
        double step = dx_[i];
        if (i < nv) {
          step = std::clamp(step, -opts_.v_limit, opts_.v_limit);
          max_dv = std::max(max_dv, std::abs(step));
        }
        x1[i] -= step;
      }
      if (max_dv < opts_.v_tol) return true;
      // Modified-Newton escalation: a stale factor that stops contracting
      // (or is taking clamped full-limit steps) gets replaced next
      // iteration instead of burning the whole budget.
      if (!fresh && (max_dv >= prev_dv || max_dv >= opts_.v_limit))
        have_factor_ = false;
      prev_dv = max_dv;
    }
    have_factor_ = false;
    return false;
  };

  StepController ctl(spec, ckt_);
  have_factor_ = false;
  stale_solves_ = 0;

  // Predictor history (previous accepted point) for the initial guess and
  // the LTE estimate. Invalidated across source-waveform corners, where
  // the derivative is discontinuous.
  Vector x_prev;
  double h_prev = 0.0;
  bool have_prev = false;

  double t0 = spec.t_start;
  std::uint64_t attempts = 0;
  while (!ctl.done(t0)) {
    // Deadline polling hoisted to every 64th attempt: with a deadline
    // installed each checkpoint is a clock read, which at sub-µs steps
    // was measurable. 64 steps of slack keeps cancellation latency well
    // under a millisecond.
    if ((attempts & 63) == 0) deadline_checkpoint("NonlinearSim::run");
    if (++attempts > 25'000'000)
      throw NumericError("NonlinearSim: adaptive step limit exceeded");
    const double h = ctl.step_size(t0);
    double t1 = t0 + h;
    if (t1 > spec.t_stop) t1 = spec.t_stop;
    set_step_matrix(h);
    mna_.rhs_into(t1, b1);

    mna_.Gs().matvec(x0, f0_);  // f0_ = G x0 + i(x0)
    stamp_devices(x0, &f0_, 0.0);
    mna_.Cs().matvec(x0, cx0_);

    // Initial guess: linear extrapolation when history exists (also the
    // chord method's best friend), else the previous point.
    x1 = x0;
    if (have_prev && h_prev > 0.0) {
      const double r = h / h_prev;
      for (std::size_t i = 0; i < dim; ++i)
        x1[i] = x0[i] + r * (x0[i] - x_prev[i]);
    }

    if (!newton_step()) {
      // Ladder: fresh factor already happened inside newton_step; next
      // rung is a smaller step (adaptive), then failure.
      if (ctl.newton_backoff(h)) {
        have_factor_ = false;
        have_prev = false;
        continue;
      }
      throw ConvergenceError("NonlinearSim: Newton diverged at t = " +
                             std::to_string(t1));
    }
    if (!all_finite(x1))
      throw NumericError("NonlinearSim: non-finite solution at t = " +
                         std::to_string(t1));

    // LTE estimate: corrector vs linear extrapolation of the last two
    // accepted points, damped by h/(h + h_prev).
    double est = -1.0;
    if (ctl.adaptive() && have_prev && h_prev > 0.0) {
      const double r = h / h_prev;
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
    // Rotate the three state buffers instead of reallocating: x_prev takes
    // the old x0, x0 takes the converged x1, and x1 inherits a dead buffer
    // that the next attempt's initial-guess assignment overwrites.
    std::swap(x_prev, x0);
    h_prev = h;
    have_prev = !kink;
    std::swap(x0, x1);
    std::swap(b0, b1);
    t0 = t1;
    record(x0, t0);
  }
  c.newton_iters.add(newton_iters);
  c.steps.add(n_steps);
  c.lte_accepted.add(n_steps);
  if (n_rej) c.lte_rejected.add(n_rej);
  if (n_fresh) c.fresh_factors.add(n_fresh);
  if (n_stale) c.stale_reuse.add(n_stale);
  for (std::size_t i = 0; i < n_dt_bins; ++i)
    c.dt_accepted.record_n(dt_bins[i].h, dt_bins[i].n);
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
