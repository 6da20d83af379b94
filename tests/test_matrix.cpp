// Unit tests for dense matrices and LU factorization (matrix/dense.*).
#include "matrix/dense.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "matrix/small_dense.hpp"
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
  ASSERT_TRUE(lu->refactor(a2).ok());
  const Vector x = lu->solve(Vector{5.0, 4.0});
  EXPECT_NEAR(4.0 * x[0] + x[1], 5.0, 1e-12);
  EXPECT_NEAR(x[0] + 3.0 * x[1], 4.0, 1e-12);

  EXPECT_EQ(lu->refactor(Matrix(3, 3)).code(), StatusCode::kInvalidArgument);
  Matrix sing(2, 2);
  sing(0, 0) = 1;
  sing(0, 1) = 2;
  sing(1, 0) = 2;
  sing(1, 1) = 4;
  EXPECT_EQ(lu->refactor(sing).code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// BackendEquivalence: the small-dense stack kernels (matrix/small_dense.*)
// must perform EXACTLY the arithmetic of the generic LuFactor path — the
// batch engine's byte-identical reports depend on solutions being bitwise
// equal no matter which backend served the solve. These are property
// tests over every supported dimension; EXPECT_EQ on double is the
// deliberate bitwise check (== on identical bit patterns).

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

TEST(BackendEquivalence, SmallLuMatchesLuFactorBitwise) {
  Rng rng(2026);
  for (std::size_t n = 1; n <= kSmallLuMaxDim; ++n) {
    const Matrix a = random_system(rng, n);
    auto lu = LuFactor::make(a);
    ASSERT_TRUE(lu.ok()) << "dim " << n;
    SmallLu small;
    ASSERT_TRUE(small.factorize(a).ok()) << "dim " << n;
    EXPECT_EQ(small.size(), n);
    EXPECT_EQ(small.min_pivot(), lu->min_pivot()) << "dim " << n;

    Vector b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-2.0, 2.0);
    const Vector x_ref = lu->solve(b);
    Vector x_small = b;
    small.solve_in_place(std::span<double>(x_small));
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(x_small[i], x_ref[i]) << "dim " << n << " i " << i;
  }
}

TEST(BackendEquivalence, RefactorMatchesFreshFactor) {
  // SmallLu::factorize doubles as the refactor entry; after restamping it
  // must agree bitwise with LuFactor::refactor on the same values.
  Rng rng(7);
  for (std::size_t n = 2; n <= kSmallLuMaxDim; n += 3) {
    const Matrix a0 = random_system(rng, n);
    auto lu = LuFactor::make(a0);
    ASSERT_TRUE(lu.ok());
    SmallLu small;
    ASSERT_TRUE(small.factorize(a0).ok());

    const Matrix a1 = random_system(rng, n);
    ASSERT_TRUE(lu->refactor(a1).ok());
    ASSERT_TRUE(small.factorize(a1).ok());
    Vector b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-1.0, 1.0);
    const Vector x_ref = lu->solve(b);
    Vector x_small = b;
    small.solve_in_place(std::span<double>(x_small));
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x_small[i], x_ref[i]);
  }
}

TEST(BackendEquivalence, SolveBatchMatchesSequentialSolves) {
  Rng rng(11);
  for (std::size_t n : {1u, 3u, 8u, 16u}) {
    const Matrix a = random_system(rng, n);
    SmallLu small;
    ASSERT_TRUE(small.factorize(a).ok());
    const std::size_t k = 5;
    std::vector<double> cols(n * k);
    for (auto& v : cols) v = rng.uniform(-3.0, 3.0);
    std::vector<double> batched = cols;
    small.solve_batch(batched, k);
    for (std::size_t j = 0; j < k; ++j) {
      std::vector<double> one(cols.begin() + j * n, cols.begin() + (j + 1) * n);
      small.solve_in_place(one);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(batched[j * n + i], one[i]) << "n " << n << " col " << j;
    }
  }
}

TEST(BackendEquivalence, SmallLuRequiresPivoting) {
  Matrix a(2, 2);
  a(0, 1) = 1;
  a(1, 0) = 1;
  SmallLu small;
  ASSERT_TRUE(small.factorize(a).ok());
  Vector x{2.0, 3.0};
  small.solve_in_place(std::span<double>(x));
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(BackendEquivalence, SmallLuSingularIsInternalError) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  SmallLu small;
  EXPECT_EQ(small.factorize(a).code(), StatusCode::kInternal);
}

TEST(BackendEquivalence, SmallLuRejectsOversizedAndNonSquare) {
  SmallLu small;
  EXPECT_EQ(small.factorize(Matrix(17, 17)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(small.factorize(Matrix(2, 3)).code(),
            StatusCode::kInvalidArgument);
}

TEST(BackendEquivalence, SystemSolverSelectsSmallKernelAndMatchesGeneric) {
  Rng rng(42);
  const std::size_t n = 6;
  const Matrix a = random_system(rng, n);
  const SparseMatrix sp = SparseMatrix::from_dense(a);
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-1.0, 1.0);

  SolverOptions small_opts;  // Defaults: small path active below dim 16.
  obs::set_metrics_enabled(true);
  const std::uint64_t before =
      obs::metrics().counter("solver.backend.small_dense").value();
  auto s_small = SystemSolver::make(sp, small_opts);
  obs::set_metrics_enabled(false);
  ASSERT_TRUE(s_small.ok());
  EXPECT_TRUE(s_small->uses_small_kernel());
  EXPECT_EQ(s_small->backend(), SolverBackend::kDense);
  EXPECT_EQ(obs::metrics().counter("solver.backend.small_dense").value(),
            before + 1);

  // The heap-backed generic dense LU on the same matrix.
  auto s_generic = LuFactor::make(a);
  ASSERT_TRUE(s_generic.ok());

  const Vector x_small = s_small->solve(b);
  const Vector x_generic = s_generic->solve(b);
  ASSERT_EQ(x_small.size(), x_generic.size());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x_small[i], x_generic[i]);

  // Batched entry on the facade: bitwise equal to one-at-a-time solves.
  std::vector<double> cols(n * 3);
  for (auto& v : cols) v = rng.uniform(-1.0, 1.0);
  std::vector<double> batched = cols;
  s_small->solve_batch(batched, 3);
  for (std::size_t j = 0; j < 3; ++j) {
    Vector one(n);
    for (std::size_t i = 0; i < n; ++i) one[i] = cols[j * n + i];
    s_generic->solve_in_place(one);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(batched[j * n + i], one[i]);
  }
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
