// Nonlinear transient simulator: Newton-Raphson over trapezoidal MNA.
//
// This is the repo's stand-in for SPICE: it provides the "full non-linear
// simulation" golden reference of the paper (Figure 13's X axis), the
// single-driver simulations used to extract the transient holding
// resistance (paper §2, Figure 4), and the nonlinear receiver simulations
// behind the alignment pre-characterization (paper §3.2).
//
// Hot-path architecture (DESIGN.md §12):
//   - Fixed union Jacobian pattern (G/C stamps + every MOSFET small-signal
//     entry) built once; iterations restamp VALUES into one reused sparse
//     scratch — no per-iteration allocation or symbolic work.
//   - Structure-of-arrays device evaluation: one mosfet_eval_batch sweep
//     per iteration over flat parameter/voltage arrays.
//   - Modified Newton: the factored Jacobian is reused across iterations
//     AND across time steps until a stale budget or a divergence heuristic
//     forces a fresh restamp+refactor (SparseLu::refactor replays numerics
//     only). Fallback ladder: stale factor -> fresh factor -> halve the
//     step (adaptive) -> kNumericError.
//     One iteration routine serves the DC and the transient solves; each
//     supplies only its residual/Jacobian assembly.
//   - Stepping (fixed or LTE-adaptive) is sim/transient.hpp's
//     march_transient; this class supplies the per-step Newton solve.
//
// The public surface is StatusOr-only: try_run/try_dc_solve never throw —
// Newton non-convergence is kNumericError, a cancelled deadline
// kDeadlineExceeded, a bad spec kInvalidArgument.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/mna.hpp"
#include "matrix/solver.hpp"
#include "sim/transient.hpp"
#include "util/status.hpp"

namespace dn {

/// Per-iteration Newton node-voltage step clamp [V].
constexpr double kNewtonVoltageLimit = 0.5;

struct NewtonOptions {
  int max_iterations = 80;
  // Convergence: max |delta V| [V]. 100 nV sits ~4 orders below the
  // per-step truncation error of any grid this flow uses (SPICE vntol is
  // a full order looser still); tightening it further buys no accuracy,
  // only extra chord iterations on large adaptive steps.
  double v_tol = 1e-7;
  /// Modified-Newton budget: solves allowed on one factored Jacobian
  /// before a fresh restamp+refactor is forced. 0 = classic full Newton
  /// (refactor every iteration).
  int stale_jacobian_iters = 16;
  SolverOptions solver{};     // Backend for the Newton linear solves.
};

/// How a transient starts.
struct RunControl {
  /// Seeds the DC operating-point solve (warm start); validated by
  /// Newton, never trusted blindly.
  const Vector* dc_hint = nullptr;
};

class NonlinearSim {
 public:
  /// `ckt` must outlive the simulator.
  explicit NonlinearSim(const Circuit& ckt, NewtonOptions opts = {});

  // The device-sweep spans point into this object's own scratch.
  NonlinearSim(const NonlinearSim&) = delete;
  NonlinearSim& operator=(const NonlinearSim&) = delete;

  /// Trapezoidal transient from the DC operating point at t_start
  /// (LTE-adaptive when spec.lte_tol > 0). kNumericError on Newton
  /// non-convergence, kInvalidArgument on a bad spec.
  StatusOr<TransientResult> try_run(const TransientSpec& spec,
                                    const RunControl& rc = {}) const;

  /// DC operating point at time t. With a usable `hint` the gmin-stepping
  /// ladder is skipped entirely when direct Newton from the hint converges.
  StatusOr<Vector> try_dc_solve(double t, const Vector* hint = nullptr) const;

  const MnaSystem& mna() const { return mna_; }

 private:
  /// Adds MOSFET companion-model contributions at state x:
  ///   *inl += device currents flowing out of each node (when inl != nullptr)
  ///   jac_ += jac_scale * d(i_nl)/dx  (when jac_scale != 0)
  /// One batched device sweep feeds both.
  void stamp_devices(const Vector& x, Vector* inl, double jac_scale) const;

  /// Newton iteration counts (all, fresh factor, stale factor), flushed
  /// to the sim.* metrics once per solve sequence.
  struct NewtonTally {
    std::uint64_t iters = 0, fresh = 0, stale = 0;
  };

  /// The one modified-Newton iteration (DC and transient). Each iteration
  /// calls `assemble(x, fresh)`, which writes the residual F(x) into f_
  /// and, when `fresh`, the Jacobian values into jac_; a fresh Jacobian is
  /// then factored, a stale one reused. Returns true once the clamped
  /// node-voltage update drops below v_tol; x is the guess on entry and
  /// the iterate on exit.
  template <class Assemble>
  bool newton(Vector& x, Assemble&& assemble, NewtonTally& tally) const;

  /// Factors jac_ through the backend; after the first call only the
  /// numeric phase reruns (the pattern never changes).
  void factor_jacobian() const;

  // Throwing internals wrapped by the StatusOr surface.
  Vector dc_solve(double t, const Vector* hint) const;
  TransientResult run_impl(const TransientSpec& spec,
                           const RunControl& rc) const;

  const Circuit& ckt_;
  MnaSystem mna_;
  NewtonOptions opts_;

  // Fixed-pattern Newton workspace, built once in the constructor and
  // reused by every solve. A NonlinearSim is per-thread state (the flow
  // constructs one per analysis); the mutable scratch is not synchronized.
  mutable SparseMatrix jac_;                    // Union-pattern scratch.
  std::vector<std::ptrdiff_t> g_map_, c_map_;   // Gs/Cs slot -> jac_ slot.
  std::vector<std::ptrdiff_t> node_diag_;       // Node diagonal slots.
  std::vector<std::array<std::ptrdiff_t, 6>> dev_slots_;  // Per-MOSFET.
  // Structure-of-arrays device batch (constructor-built parameters plus
  // per-iteration gather/scatter scratch).
  MosfetBatch batch_;
  std::vector<std::ptrdiff_t> dev_d_, dev_g_, dev_s_;  // Node var or -1.
  // Device-sweep SoA scratch: six arrays carved from one allocation,
  // contiguous in memory.
  mutable std::vector<double> sweep_;
  mutable std::span<double> bvd_, bvg_, bvs_, bid_, bgm_, bgds_;
  mutable std::optional<SystemSolver> solver_;
  mutable Vector base_vals_, f_, f0_, dx_, cx0_, cx1_;
  // Modified-Newton bookkeeping: what state the factored Jacobian was
  // stamped for. Reset at the start of every run.
  mutable bool have_factor_ = false;  // solver_ holds a usable factor.
  mutable int stale_solves_ = 0;      // Solves since the last fresh stamp.
  mutable int stale_budget_ = 0;      // Effective chord budget for this run:
                                      // spec override or opts_ default.
};

}  // namespace dn
