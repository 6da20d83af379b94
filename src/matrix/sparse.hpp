// Sparse linear algebra for large MNA systems.
//
// The paper's full nets are multi-thousand-element RC networks; assembling
// them densely costs O(n^2) memory and O(n^3) LU before any reduction can
// help. This module provides the sparse counterparts of matrix/dense.*:
//
//   SparseMatrix  — COO (triplet) assembly into CSR storage with O(nnz)
//                   matvec, a mutable values() array over a frozen pattern
//                   (so Newton restamps touch only device entries), and
//                   union-pattern linear combination for building the
//                   trapezoidal system matrices C/dt +/- G/2.
//   SparseLu      — fill-reducing LU (minimum-degree column preorder +
//                   left-looking Gilbert-Peierls with threshold partial
//                   pivoting). The first factorization performs the
//                   symbolic analysis (reach DFS, pivot order, factor
//                   patterns); refactor() replays only the numeric phase
//                   against the frozen pattern, which is what the
//                   factor-once/backsub-many transient loop and the
//                   fixed-pattern Newton restamps need.
//
// Errors surface as Status (singular pivot, shape mismatch) — the batch
// engine must record-and-skip a bad net, never unwind the run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "matrix/dense.hpp"
#include "util/status.hpp"

namespace dn {

/// One COO entry; duplicates targeting the same (r, c) accumulate.
struct Triplet {
  std::size_t r = 0, c = 0;
  double v = 0.0;
};

/// Compressed-sparse-row matrix with a frozen pattern and mutable values.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Builds CSR from triplets, summing duplicates. Explicit zeros are KEPT:
  /// stamping code registers pattern slots with zero-valued triplets so a
  /// later refactor never discovers a new entry.
  static SparseMatrix from_triplets(std::size_t rows, std::size_t cols,
                                    const std::vector<Triplet>& triplets);

  /// Entries of `m` with |value| > drop_tol (0 keeps every nonzero).
  static SparseMatrix from_dense(const Matrix& m, double drop_tol = 0.0);

  /// alpha*a + beta*b over the UNION of both patterns (cancellation keeps
  /// the slot). Shapes must match.
  static SparseMatrix combine(double alpha, const SparseMatrix& a, double beta,
                              const SparseMatrix& b);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return col_.size(); }
  /// nnz / (rows*cols); 1.0 for an empty shape.
  double density() const;

  std::span<const std::size_t> row_ptr() const { return row_ptr_; }
  std::span<const std::size_t> col_idx() const { return col_; }
  std::span<const double> values() const { return val_; }
  /// Mutable values over the frozen pattern (for restamping).
  std::span<double> values() { return val_; }

  /// Index into values() of entry (r, c), or -1 when (r, c) is not in the
  /// pattern. Binary search within the row: O(log row_nnz).
  std::ptrdiff_t value_index(std::size_t r, std::size_t c) const;

  /// Value at (r, c); 0 for entries outside the pattern.
  double at(std::size_t r, std::size_t c) const;

  /// y = A x (y is overwritten; sizes must match).
  void matvec(std::span<const double> x, std::span<double> y) const;
  Vector operator*(const Vector& x) const;

  Matrix to_dense() const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<std::size_t> row_ptr_ = {0};
  std::vector<std::size_t> col_;  // Column indices, ascending within a row.
  std::vector<double> val_;
};

/// Sparse LU: P A Q = L U with a fill-reducing column preorder Q computed
/// by minimum degree on the pattern of A + A^T and row order P chosen by
/// threshold partial pivoting during the first (symbolic+numeric)
/// factorization: the structural diagonal is the pivot when
/// |a_diag| >= 1e-3 * |a_max| in its column, which preserves the
/// fill-reducing ordering; otherwise the largest off-diagonal wins
/// (numerical safety for e.g. vsource branch rows). refactor() reuses Q,
/// P, and the factor patterns.
class SparseLu {
 public:
  /// Factors `a` (symbolic + numeric). Non-square shapes come back as
  /// kInvalidArgument, numerical singularity as kInternal.
  static StatusOr<SparseLu> make(const SparseMatrix& a);

  /// Numeric-only refactorization: `a` must have the same pattern as the
  /// originally factored matrix (same shape and nnz; the stored symbolic
  /// analysis is replayed). kInternal on a (near-)zero pivot — callers
  /// should then fall back to a fresh make() to re-pivot.
  Status refactor(const SparseMatrix& a);

  std::size_t size() const { return n_; }

  /// Solves A x = b reusing the factorization. solve_in_place runs over a
  /// member scratch buffer, so steady-state solves allocate nothing.
  Vector solve(std::span<const double> b) const;
  void solve_in_place(std::span<double> x) const;

  /// nnz(L) + nnz(U) including both diagonals.
  std::size_t nnz_factors() const { return li_.size() + ui_.size() + n_; }
  /// Fill-in: nnz_factors() relative to the factored matrix's nnz.
  double fill_ratio() const;
  /// Smallest pivot magnitude (cheap conditioning health indicator).
  double min_pivot() const { return min_pivot_; }

 private:
  SparseLu() = default;

  Status factor_fresh(const SparseMatrix& a);

  std::size_t n_ = 0;
  std::size_t a_nnz_ = 0;
  std::vector<std::int32_t> q_;     // Column order: position k factors column q_[k].
  std::vector<std::int32_t> pinv_;  // Original row -> pivot position.
  // Factors in CSC with row indices in PIVOT coordinates. L has an implicit
  // unit diagonal; U's diagonal lives in udiag_ and its off-diagonal column
  // entries are sorted ascending (a valid replay order for refactor()).
  std::vector<std::int32_t> lp_, li_;
  std::vector<double> lx_;
  std::vector<std::int32_t> up_, ui_;
  std::vector<double> ux_;
  std::vector<double> udiag_;
  // CSC view of the factored matrix's pattern: column pointers, original
  // row ids, and the map back into the CSR values() array — lets
  // refactor() read a same-pattern matrix column-wise without rebuilding.
  std::vector<std::int32_t> cp_, ci_, cmap_;
  double min_pivot_ = 0.0;
  mutable std::vector<double> scratch_;  // Pivot-order RHS workspace.
};

/// Minimum-degree elimination order on the symmetrized pattern of `a`
/// (exposed for tests). Greedy node elimination with clique formation;
/// neighborhoods larger than a small cap skip the clique update (the
/// ordering is a fill heuristic — correctness never depends on it).
std::vector<std::int32_t> min_degree_order(const SparseMatrix& a);

}  // namespace dn
