// Dense linear algebra for MNA systems.
//
// Gate and characterization circuits are a few to a few dozen unknowns,
// and dense storage with partial-pivot LU is simpler and faster there.
// LuFactor is the one dense LU: SystemSolver (matrix/solver.hpp) picks it
// for small or dense systems and SparseLu for large sparse MNA systems,
// and a gate circuit's 2-12 unknowns solve on its unrolled kernels
// (kUnrolledSolveMaxDim) with no heap traffic per solve; the flow simulates
// unreduced nets, which can run to thousands of nodes. A transient
// factors once per step size, not once per run: LinearSim caches one
// factor per dt rung it visits and back-substitutes every step on it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/status.hpp"

namespace dn {

class SparseMatrix;

using Vector = std::vector<double>;

/// Row-major dense matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  std::span<double> row(std::size_t r) { return {data_.data() + r * cols_, cols_}; }
  std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  Matrix transposed() const;
  Matrix operator*(const Matrix& rhs) const;
  Vector operator*(const Vector& v) const;
  Matrix operator+(const Matrix& rhs) const;
  Matrix operator-(const Matrix& rhs) const;
  Matrix scaled(double s) const;

  /// Frobenius norm.
  double norm() const;

  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }

 private:
  std::size_t rows_ = 0, cols_ = 0;
  Vector data_;
};

/// Largest dimension whose solves run on a compile-time-unrolled kernel.
/// Gate circuits are 2-12 unknowns; above this the runtime loop runs.
inline constexpr std::size_t kUnrolledSolveMaxDim = 16;

/// Partial-pivot LU factorization of a square matrix; solve() reuses the
/// factorization for any number of right-hand sides. The one dense LU:
/// factors are packed row-major at stride n, factorization is one
/// runtime-n loop, and solves of n <= kUnrolledSolveMaxDim dispatch to an
/// unrolled substitution with a stack workspace. Both solve paths do the
/// same floating-point operations in the same order, so a system's
/// solution does not depend on which one served it.
class LuFactor {
 public:
  /// Factors A. Non-square shapes come back as kInvalidArgument and
  /// numerical singularity as kInternal — a singular MNA system is a
  /// per-net analysis failure the batch engine records and skips.
  static StatusOr<LuFactor> make(const Matrix& a);

  /// Factors a CSR matrix, densifying straight into the factor's own
  /// storage (zero fill, then the stored values added in row order).
  static StatusOr<LuFactor> make(const SparseMatrix& a);

  /// Numeric refactorization of a same-shaped CSR matrix reusing this
  /// factor's storage — the zero-allocation path for fixed-pattern Newton
  /// restamps, which run millions of times per batch. Full re-pivoting
  /// each call (dense partial-pivot LU has no symbolic phase worth
  /// caching).
  Status refactor(const SparseMatrix& a);

  std::size_t size() const { return n_; }

  /// Solves A x = b.
  Vector solve(std::span<const double> b) const;

  /// Solves in place (x holds b on entry, solution on exit). Allocates
  /// nothing: small systems substitute on the stack, larger ones on a
  /// member scratch buffer sized by the first solve.
  void solve_in_place(std::span<double> x) const;

  /// 1-norm condition estimate is overkill; this exposes the smallest
  /// pivot magnitude as a cheap health indicator.
  double min_pivot() const { return min_pivot_; }

 private:
  LuFactor() = default;

  /// Factors lu_ in place; perm_/min_pivot_ are (re)initialized.
  Status factorize();

  std::size_t n_ = 0;
  std::vector<double> lu_;  // Row-major, packed at stride n_.
  std::vector<std::size_t> perm_;
  double min_pivot_ = 0.0;
  mutable Vector scratch_;  // Substitution workspace above the unrolled dims.
};

// Basic vector helpers shared by the simulators and PRIMA.
double dot(std::span<const double> a, std::span<const double> b);
double norm2(std::span<const double> v);
void axpy(double alpha, std::span<const double> x, std::span<double> y);  // y += a*x
void scale(std::span<double> v, double s);

}  // namespace dn
