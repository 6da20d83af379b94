// SystemSolver: one factor/solve facade over dense LuFactor and SparseLu.
//
// The simulators and PRIMA never care which storage format backs a
// factorization — they need factor-once/backsub-many and, for Newton,
// cheap same-pattern refactorization. This facade holds exactly one of
// the two factors: it picks the backend per system (small or genuinely
// dense systems stay on the dense path, large sparse MNA systems go to
// SparseLu) and callers can force either via SolverOptions, which the
// CLI exposes as --solver. Every dense system, whatever its size or
// route (picked, forced, or a sparse failure's fallback), factors
// through LuFactor's CSR entry points.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>

#include "matrix/dense.hpp"
#include "matrix/sparse.hpp"
#include "util/status.hpp"

namespace dn {

enum class SolverBackend {
  kAuto = 0,  // Pick per system by dimension and density.
  kDense,
  kSparse,
};

const char* solver_backend_name(SolverBackend b);
/// Parses "auto" / "dense" / "sparse" (kInvalidArgument otherwise).
StatusOr<SolverBackend> parse_solver_backend(const std::string& name);

struct SolverOptions {
  /// kAuto stays dense below dimension 96 (dense LU's constant factors
  /// beat the sparse ordering + DFS overhead on small MNA systems) and
  /// above density nnz/(n*n) = 0.25 (fill-in would make the sparse factors
  /// about as dense as the dense ones anyway).
  SolverBackend backend = SolverBackend::kAuto;
  /// Degradation-ladder rung (DESIGN.md §10): when a sparse
  /// factorization or refactorization fails outright (pivot breakdown
  /// even after re-pivoting), densify and retry on the dense backend
  /// instead of failing the solve. Each fallback is recorded via
  /// dn::degrade. Off turns sparse failure back into a hard error.
  bool allow_dense_fallback = true;
};

/// A factored linear system behind the backend chosen from SolverOptions.
/// Instrumented with dn::obs metrics (factor/solve latency, backend
/// counts, sparse nnz and fill-in) — visible via the CLI's --profile.
class SystemSolver {
 public:
  /// Factors `a` with the backend resolved from `opts` (kAuto picks by
  /// dimension/density). Singularity comes back as kInternal.
  static StatusOr<SystemSolver> make(const SparseMatrix& a,
                                     const SolverOptions& opts = {});

  /// Refactors a matrix with the SAME pattern as the one given to make()
  /// — numeric-only replay on the sparse path (falling back to a fresh
  /// re-pivoting factorization if the replayed pivots go bad), a
  /// zero-allocation dense refactorization otherwise.
  Status refactor(const SparseMatrix& a);

  Vector solve(std::span<const double> b) const;
  /// Solves in place (x holds b on entry, the solution on exit).
  void solve_in_place(std::span<double> x) const;

  /// Solves A X = B for k right-hand sides stored as k contiguous
  /// length-size() columns in `cols` — one factorization, one latency
  /// sample, k back-substitutions. Each column goes through arithmetic
  /// identical to a standalone solve_in_place, so batched and sequential
  /// solves are bit-identical.
  void solve_batch(std::span<double> cols, std::size_t k) const;

  /// The resolved backend: kDense or kSparse, never kAuto.
  SolverBackend backend() const {
    return dense_ ? SolverBackend::kDense : SolverBackend::kSparse;
  }
  std::size_t size() const;
  double min_pivot() const;

 private:
  SystemSolver() = default;

  bool allow_dense_fallback_ = true;
  std::optional<LuFactor> dense_;  // Exactly one of the two is set.
  std::optional<SparseLu> sparse_;
};

}  // namespace dn
