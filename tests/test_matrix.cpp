// Unit tests for dense matrices and LU factorization (matrix/dense.*).
#include "matrix/dense.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "matrix/solver.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace dn {
namespace {

TEST(Matrix, IdentityAndMultiply) {
  const Matrix eye = Matrix::identity(3);
  Matrix a(3, 3);
  int v = 1;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = v++;
  const Matrix prod = eye * a;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(prod(r, c), a(r, c));
}

TEST(Matrix, TransposeRoundTrip) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 2) = 5;
  a(1, 1) = -2;
  const Matrix att = a.transposed().transposed();
  EXPECT_DOUBLE_EQ((a - att).norm(), 0.0);
}

TEST(Matrix, MatrixVectorProduct) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  const Vector y = a * Vector{1.0, 1.0};
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(a * b, std::invalid_argument);
  EXPECT_THROW(a * Vector{1.0}, std::invalid_argument);
}

TEST(Lu, SolvesKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  auto lu = LuFactor::make(a);
  ASSERT_TRUE(lu.ok());
  const Vector x = lu->solve(Vector{3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, RequiresPivoting) {
  // Zero on the leading diagonal forces a row swap.
  Matrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  auto lu = LuFactor::make(a);
  ASSERT_TRUE(lu.ok());
  const Vector x = lu->solve(Vector{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SingularIsInternalError) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  auto lu = LuFactor::make(a);
  ASSERT_FALSE(lu.ok());
  EXPECT_EQ(lu.status().code(), StatusCode::kInternal);
}

TEST(Lu, RandomRoundTrip) {
  // Property: for random well-conditioned A and x, solve(A, A*x) == x.
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 30));
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1, 1);
      a(r, r) += 4.0;  // Diagonal dominance keeps the condition number sane.
    }
    Vector x(n);
    for (auto& v : x) v = rng.uniform(-10, 10);
    const Vector b = a * x;
    auto lu = LuFactor::make(a);
    ASSERT_TRUE(lu.ok());
    const Vector got = lu->solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(got[i], x[i], 1e-8);
  }
}

TEST(Lu, NotSquareIsInvalidArgument) {
  auto lu = LuFactor::make(Matrix(2, 3));
  ASSERT_FALSE(lu.ok());
  EXPECT_EQ(lu.status().code(), StatusCode::kInvalidArgument);
}

TEST(Lu, RefactorReusesStorage) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  auto lu = LuFactor::make(a);
  ASSERT_TRUE(lu.ok());

  Matrix a2 = a;
  a2(0, 0) = 4;  // New values, same shape.
  ASSERT_TRUE(lu->refactor(SparseMatrix::from_dense(a2)).ok());
  const Vector x = lu->solve(Vector{5.0, 4.0});
  EXPECT_NEAR(4.0 * x[0] + x[1], 5.0, 1e-12);
  EXPECT_NEAR(x[0] + 3.0 * x[1], 4.0, 1e-12);

  EXPECT_EQ(lu->refactor(SparseMatrix::from_dense(Matrix(3, 3))).code(),
            StatusCode::kInvalidArgument);
  Matrix sing(2, 2);
  sing(0, 0) = 1;
  sing(0, 1) = 2;
  sing(1, 0) = 2;
  sing(1, 1) = 4;
  EXPECT_EQ(lu->refactor(SparseMatrix::from_dense(sing)).code(),
            StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// BackendEquivalence: LuFactor solves n <= kUnrolledSolveMaxDim on an
// unrolled kernel and larger n on a runtime loop, and factors from a Matrix
// or straight from CSR. Every route must do the same arithmetic: the batch
// engine's byte-identical reports depend on a system's solution not
// depending on the route that served it. EXPECT_EQ on double is the
// deliberate bitwise check.

Matrix random_system(Rng& rng, std::size_t n) {
  // Diagonally dominant so every dimension factors without breakdown,
  // but with off-diagonal structure big enough to force pivoting noise.
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    double row_sum = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      if (r == c) continue;
      a(r, c) = rng.uniform(-1.0, 1.0);
      row_sum += std::abs(a(r, c));
    }
    a(r, r) = (rng.uniform() < 0.5 ? -1.0 : 1.0) * (row_sum + rng.uniform(0.5, 1.5));
  }
  return a;
}

/// [A 0; 0 I]: an identity block of `pad` rows past A. Pivot search and
/// elimination over A's columns see only zeros in the padding, so the
/// first a.rows() unknowns go through A's own arithmetic.
Matrix padded(const Matrix& a, std::size_t pad) {
  const std::size_t n = a.rows();
  Matrix big(n + pad, n + pad);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) big(r, c) = a(r, c);
  for (std::size_t i = n; i < n + pad; ++i) big(i, i) = 1.0;
  return big;
}

/// The anti-diagonal permutation: every column needs a row swap.
Matrix reversal(std::size_t n) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) a(i, n - 1 - i) = 1.0;
  return a;
}

SolverOptions forced(SolverBackend b) {
  SolverOptions o;
  o.backend = b;
  return o;
}

TEST(BackendEquivalence, UnrolledSolveMatchesRuntimeLoopBitwise) {
  // Embedding A in [A 0; 0 I_17] moves its solve onto the runtime loop.
  Rng rng(2026);
  for (std::size_t n = 1; n <= kUnrolledSolveMaxDim; ++n) {
    const Matrix a = random_system(rng, n);
    auto unrolled = LuFactor::make(a);
    auto runtime = LuFactor::make(padded(a, kUnrolledSolveMaxDim + 1));
    ASSERT_TRUE(unrolled.ok()) << "dim " << n;
    ASSERT_TRUE(runtime.ok()) << "dim " << n;
    ASSERT_GT(runtime->size(), kUnrolledSolveMaxDim);

    Vector b(runtime->size());
    for (double& v : b) v = rng.uniform(-2.0, 2.0);
    const Vector x_runtime = runtime->solve(b);
    const Vector x_unrolled = unrolled->solve(std::span(b).first(n));
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(x_unrolled[i], x_runtime[i]) << "dim " << n << " i " << i;
  }
}

TEST(BackendEquivalence, RefactorMatchesFreshFactor) {
  // Refactoring from CSR must agree bitwise with a fresh factor of the
  // same values, on both solve paths.
  Rng rng(7);
  for (std::size_t n = 2; n <= 2 * kUnrolledSolveMaxDim; n += 3) {
    const Matrix a0 = random_system(rng, n);
    auto lu = LuFactor::make(SparseMatrix::from_dense(a0));
    ASSERT_TRUE(lu.ok());

    const Matrix a1 = random_system(rng, n);
    ASSERT_TRUE(lu->refactor(SparseMatrix::from_dense(a1)).ok());
    auto fresh = LuFactor::make(a1);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(lu->min_pivot(), fresh->min_pivot()) << "dim " << n;
    Vector b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-1.0, 1.0);
    const Vector x_ref = fresh->solve(b);
    const Vector x = lu->solve(b);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(x[i], x_ref[i]) << "dim " << n << " i " << i;
  }
}

TEST(BackendEquivalence, SolveBatchMatchesSequentialSolves) {
  Rng rng(11);
  for (std::size_t n : {1u, 3u, 8u, 16u, 17u, 24u}) {
    auto solver = SystemSolver::make(SparseMatrix::from_dense(random_system(rng, n)),
                                     forced(SolverBackend::kDense));
    ASSERT_TRUE(solver.ok());
    const std::size_t k = 5;
    std::vector<double> cols(n * k);
    for (auto& v : cols) v = rng.uniform(-3.0, 3.0);
    std::vector<double> batched = cols;
    solver->solve_batch(batched, k);
    for (std::size_t j = 0; j < k; ++j) {
      std::vector<double> one(cols.begin() + j * n, cols.begin() + (j + 1) * n);
      solver->solve_in_place(one);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(batched[j * n + i], one[i]) << "n " << n << " col " << j;
    }
  }
}

TEST(BackendEquivalence, DenseSolverPivotsOnBothSolvePaths) {
  for (const std::size_t n : {std::size_t{2}, kUnrolledSolveMaxDim + 1}) {
    auto solver = SystemSolver::make(SparseMatrix::from_dense(reversal(n)),
                                     forced(SolverBackend::kDense));
    ASSERT_TRUE(solver.ok()) << "dim " << n;
    Vector x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = 2.0 + static_cast<double>(i);
    solver->solve_in_place(x);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(x[i], 2.0 + static_cast<double>(n - 1 - i)) << "dim " << n;
  }
}

TEST(BackendEquivalence, DenseSolverSingularIsInternalError) {
  for (const std::size_t n : {std::size_t{2}, kUnrolledSolveMaxDim + 1}) {
    Matrix sing = Matrix::identity(n);
    sing(n - 1, n - 1) = 0.0;
    auto made = SystemSolver::make(SparseMatrix::from_dense(sing),
                                   forced(SolverBackend::kDense));
    ASSERT_FALSE(made.ok()) << "dim " << n;
    EXPECT_EQ(made.status().code(), StatusCode::kInternal);

    auto solver = SystemSolver::make(SparseMatrix::from_dense(Matrix::identity(n)),
                                     forced(SolverBackend::kDense));
    ASSERT_TRUE(solver.ok());
    EXPECT_EQ(solver->refactor(SparseMatrix::from_dense(sing)).code(),
              StatusCode::kInternal)
        << "dim " << n;
  }
}

TEST(BackendEquivalence, SystemSolverMatchesLuFactorBitwise) {
  Rng rng(42);
  const std::size_t n = 6;
  const Matrix a = random_system(rng, n);
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-1.0, 1.0);

  obs::set_metrics_enabled(true);
  const std::uint64_t before =
      obs::metrics().counter("solver.backend.dense").value();
  auto solver = SystemSolver::make(SparseMatrix::from_dense(a));
  obs::set_metrics_enabled(false);
  ASSERT_TRUE(solver.ok());
  EXPECT_EQ(solver->backend(), SolverBackend::kDense);
  EXPECT_EQ(obs::metrics().counter("solver.backend.dense").value(),
            before + 1);

  auto lu = LuFactor::make(a);
  ASSERT_TRUE(lu.ok());
  const Vector x = solver->solve(b);
  const Vector x_ref = lu->solve(b);
  ASSERT_EQ(x.size(), x_ref.size());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x[i], x_ref[i]);
}

TEST(VectorOps, DotNormAxpyScale) {
  Vector a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(norm2(Vector{3, 4}), 5.0);
  axpy(2.0, a, b);
  EXPECT_DOUBLE_EQ(b[2], 12.0);
  scale(a, -1.0);
  EXPECT_DOUBLE_EQ(a[0], -1.0);
}

}  // namespace
}  // namespace dn
