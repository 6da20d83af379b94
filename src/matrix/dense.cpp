#include "matrix/dense.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "matrix/sparse.hpp"

namespace dn {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) throw std::invalid_argument("Matrix*: shape mismatch");
  Matrix out(rows_, rhs.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j) out(i, j) += aik * rhs(k, j);
    }
  }
  return out;
}

Vector Matrix::operator*(const Vector& v) const {
  if (cols_ != v.size()) throw std::invalid_argument("Matrix*v: shape mismatch");
  Vector out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    const double* rp = data_.data() + i * cols_;
    for (std::size_t j = 0; j < cols_; ++j) acc += rp[j] * v[j];
    out[i] = acc;
  }
  return out;
}

Matrix Matrix::operator+(const Matrix& rhs) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("Matrix+: shape mismatch");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += rhs.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("Matrix-: shape mismatch");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= rhs.data_[i];
  return out;
}

Matrix Matrix::scaled(double s) const {
  Matrix out = *this;
  for (double& v : out.data_) v *= s;
  return out;
}

double Matrix::norm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

namespace {

/// x <- U^-1 L^-1 P x on factors packed at stride n, with y (n doubles) as
/// workspace. `n` is a std::size_t, or a std::integral_constant, which
/// makes every loop bound and index a compile-time constant; the
/// floating-point operations and their order are the same either way.
template <class Dim>
void substitute(const double* lu, const std::size_t* perm, Dim n, double* x,
                double* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[perm[i]];
  // Forward substitution with unit lower-triangular L.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = y[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu[i * n + j] * y[j];
    y[i] = acc;
  }
  // Back substitution with U.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu[ii * n + j] * y[j];
    y[ii] = acc / lu[ii * n + ii];
  }
  for (std::size_t i = 0; i < n; ++i) x[i] = y[i];
}

template <std::size_t N>
void solve_unrolled(const double* lu, const std::size_t* perm, double* x) {
  double y[N];
  substitute(lu, perm, std::integral_constant<std::size_t, N>{}, x, y);
}

template <std::size_t... I>
constexpr auto unrolled_solves(std::index_sequence<I...>) {
  return std::array{&solve_unrolled<I + 1>...};
}

/// kUnrolledSolves[n - 1] solves a system of dimension n.
constexpr auto kUnrolledSolves =
    unrolled_solves(std::make_index_sequence<kUnrolledSolveMaxDim>{});

}  // namespace

StatusOr<LuFactor> LuFactor::make(const Matrix& a) {
  if (a.rows() != a.cols())
    return Status::InvalidArgument("LuFactor: not square");
  LuFactor f;
  f.n_ = a.rows();
  f.lu_.reserve(f.n_ * f.n_);
  for (std::size_t r = 0; r < f.n_; ++r)
    f.lu_.insert(f.lu_.end(), a.row(r).begin(), a.row(r).end());
  Status s = f.factorize();
  if (!s.ok()) return s;
  return f;
}

StatusOr<LuFactor> LuFactor::make(const SparseMatrix& a) {
  if (a.rows() != a.cols())
    return Status::InvalidArgument("LuFactor: not square");
  LuFactor f;
  f.n_ = a.rows();
  f.lu_.resize(f.n_ * f.n_);
  Status s = f.refactor(a);
  if (!s.ok()) return s;
  return f;
}

Status LuFactor::refactor(const SparseMatrix& a) {
  if (a.rows() != n_ || a.cols() != n_)
    return Status::InvalidArgument("LuFactor::refactor: shape mismatch");
  std::fill(lu_.begin(), lu_.end(), 0.0);
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto v = a.values();
  for (std::size_t r = 0; r < n_; ++r) {
    double* row = lu_.data() + r * n_;
    for (std::size_t p = rp[r]; p < rp[r + 1]; ++p) row[ci[p]] += v[p];
  }
  return factorize();
}

Status LuFactor::factorize() {
  double* lu = lu_.data();
  const std::size_t n = n_;
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
  min_pivot_ = std::numeric_limits<double>::infinity();

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude in column k at/below row k.
    std::size_t piv = k;
    double best = std::abs(lu[k * n + k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = std::abs(lu[i * n + k]);
      if (m > best) {
        best = m;
        piv = i;
      }
    }
    if (best == 0.0 || !std::isfinite(best))
      return Status::Internal("LuFactor: singular matrix");
    min_pivot_ = std::min(min_pivot_, best);
    if (piv != k) {
      std::swap(perm_[piv], perm_[k]);
      for (std::size_t j = 0; j < n; ++j)
        std::swap(lu[piv * n + j], lu[k * n + j]);
    }
    const double inv_pivot = 1.0 / lu[k * n + k];
    for (std::size_t i = k + 1; i < n; ++i) {
      const double mult = lu[i * n + k] * inv_pivot;
      lu[i * n + k] = mult;
      if (mult == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j)
        lu[i * n + j] -= mult * lu[k * n + j];
    }
  }
  return Status::Ok();
}

Vector LuFactor::solve(std::span<const double> b) const {
  if (b.size() != size()) throw std::invalid_argument("LuFactor::solve: size");
  Vector x(b.begin(), b.end());
  solve_in_place(x);
  return x;
}

void LuFactor::solve_in_place(std::span<double> x) const {
  if (n_ >= 1 && n_ <= kUnrolledSolveMaxDim)
    return kUnrolledSolves[n_ - 1](lu_.data(), perm_.data(), x.data());
  scratch_.resize(n_);  // No-op after the first solve.
  substitute(lu_.data(), perm_.data(), n_, x.data(), scratch_.data());
}

double dot(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm2(std::span<const double> v) { return std::sqrt(dot(v, v)); }

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  assert(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(std::span<double> v, double s) {
  for (double& x : v) x *= s;
}

}  // namespace dn
