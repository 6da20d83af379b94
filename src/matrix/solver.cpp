#include "matrix/solver.hpp"

#include <utility>

#include "util/degradation.hpp"
#include "util/fault_injection.hpp"
#include "util/metrics.hpp"

namespace dn {

namespace {

// Registered once; references are stable for the process lifetime so the
// hot path is one relaxed atomic load when metrics are off (DESIGN.md §8).
struct SolverMetrics {
  obs::Counter& dense_picked = obs::metrics().counter("solver.backend.dense");
  obs::Counter& small_picked =
      obs::metrics().counter("solver.backend.small_dense");
  obs::Counter& sparse_picked = obs::metrics().counter("solver.backend.sparse");
  obs::Counter& refactors = obs::metrics().counter("solver.refactors");
  obs::Counter& refactor_fallbacks =
      obs::metrics().counter("solver.refactor_fallbacks");
  obs::Histogram& factor_seconds =
      obs::metrics().histogram("stage.solver_factor.seconds");
  obs::Histogram& solve_seconds =
      obs::metrics().histogram("stage.solver_solve.seconds");
  obs::Histogram& nnz = obs::metrics().histogram("solver.sparse.nnz");
  obs::Histogram& fill_ratio =
      obs::metrics().histogram("solver.sparse.fill_ratio");
};

// kAuto backend selection (SolverOptions::backend).
constexpr std::size_t kDenseMaxDim = 96;
constexpr double kDensityThreshold = 0.25;

SolverMetrics& sm() {
  static SolverMetrics m;
  return m;
}

void densify_into(const SparseMatrix& a, Matrix& m) {
  m.fill(0.0);
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto v = a.values();
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t p = rp[r]; p < rp[r + 1]; ++p) m(r, ci[p]) += v[p];
}

}  // namespace

const char* solver_backend_name(SolverBackend b) {
  switch (b) {
    case SolverBackend::kAuto:
      return "auto";
    case SolverBackend::kDense:
      return "dense";
    case SolverBackend::kSparse:
      return "sparse";
  }
  return "unknown";
}

StatusOr<SolverBackend> parse_solver_backend(const std::string& name) {
  if (name == "auto") return SolverBackend::kAuto;
  if (name == "dense") return SolverBackend::kDense;
  if (name == "sparse") return SolverBackend::kSparse;
  return Status::InvalidArgument("unknown solver backend '" + name +
                                 "' (expected auto|dense|sparse)");
}

StatusOr<SystemSolver> SystemSolver::make(const SparseMatrix& a,
                                          const SolverOptions& opts) {
  if (a.rows() != a.cols())
    return Status::InvalidArgument("SystemSolver: matrix not square");
  SystemSolver s;
  s.allow_dense_fallback_ = opts.allow_dense_fallback;
  s.backend_ = opts.backend;
  if (s.backend_ == SolverBackend::kAuto)
    s.backend_ = (a.rows() < kDenseMaxDim || a.density() > kDensityThreshold)
                     ? SolverBackend::kDense
                     : SolverBackend::kSparse;

  obs::ScopedLatency lat(sm().factor_seconds);
  if (s.backend_ == SolverBackend::kSparse) {
    sm().sparse_picked.add();
    StatusOr<SparseLu> f =
        fault::should_fail(fault::Site::kFactor)
            ? StatusOr<SparseLu>(
                  Status::Internal("injected fault: sparse factor"))
            : SparseLu::make(a);
    if (f.ok()) {
      if (obs::metrics_enabled()) {
        sm().nnz.record(static_cast<double>(a.nnz()));
        sm().fill_ratio.record(f->fill_ratio());
      }
      s.sparse_.emplace(std::move(*f));
      return s;
    }
    if (!opts.allow_dense_fallback) return f.status();
    // Degradation ladder: sparse pivot breakdown -> dense backend.
    degrade::record(DegradeKind::kSparseToDense,
                    "sparse factor failed (" + f.status().message() +
                        "); forced dense backend");
    s.backend_ = SolverBackend::kDense;
  }
  sm().dense_picked.add();
  // Small-system fast path: the unrolled stack kernels do the same
  // arithmetic as LuFactor with none of the heap/loop overhead. The CSR
  // input densifies straight into the kernel's block — no scratch Matrix.
  if (a.rows() > 0 && a.rows() <= kSmallLuMaxDim) {
    sm().small_picked.add();
    SmallLu lu;
    Status st = lu.factorize(a);
    if (!st.ok()) return st;
    s.small_.emplace(lu);
    return s;
  }
  s.dense_scratch_ = Matrix(a.rows(), a.cols());
  densify_into(a, s.dense_scratch_);
  auto f = LuFactor::make(s.dense_scratch_);
  if (!f.ok()) return f.status();
  s.dense_.emplace(std::move(*f));
  return s;
}

Status SystemSolver::refactor(const SparseMatrix& a) {
  sm().refactors.add();
  obs::ScopedLatency lat(sm().factor_seconds);
  if (backend_ == SolverBackend::kDense) {
    if (!dense_ && !small_)
      return Status::Internal("SystemSolver: not factored");
    // Both dense sub-backends densify straight from CSR into their own
    // factor storage (same adds, same order as a scratch densify — the
    // values and therefore the factors are bit-identical).
    if (small_) {
      if (a.rows() != small_->size() || a.cols() != small_->size())
        return Status::InvalidArgument("SystemSolver::refactor: shape mismatch");
      return small_->factorize(a);
    }
    return dense_->refactor(a);
  }
  if (!sparse_) return Status::Internal("SystemSolver: not factored");
  Status s;
  if (fault::should_fail(fault::Site::kFactor)) {
    s = Status::Internal("injected fault: sparse refactor");
  } else {
    s = sparse_->refactor(a);
    if (s.ok()) return s;
    // The replayed pivot sequence went bad for the new values: re-pivot
    // from scratch (KLU-style fallback) before giving up.
    sm().refactor_fallbacks.add();
    auto f = SparseLu::make(a);
    if (f.ok()) {
      *sparse_ = std::move(*f);
      return Status::Ok();
    }
    s = f.status();
  }
  if (!allow_dense_fallback_) return s;
  // Degradation ladder: even re-pivoting failed -> densify and carry on
  // with the dense backend for the remaining refactors.
  degrade::record(DegradeKind::kSparseToDense,
                  "sparse refactor failed (" + s.message() +
                      "); forced dense backend");
  dense_scratch_ = Matrix(a.rows(), a.cols());
  densify_into(a, dense_scratch_);
  auto f = LuFactor::make(dense_scratch_);
  if (!f.ok()) return f.status();
  dense_.emplace(std::move(*f));
  sparse_.reset();
  backend_ = SolverBackend::kDense;
  return Status::Ok();
}

Vector SystemSolver::solve(std::span<const double> b) const {
  obs::ScopedLatency lat(sm().solve_seconds);
  if (small_) {
    Vector x(b.begin(), b.end());
    small_->solve_in_place(x);
    return x;
  }
  return dense_ ? dense_->solve(b) : sparse_->solve(b);
}

void SystemSolver::solve_in_place(Vector& x) const {
  obs::ScopedLatency lat(sm().solve_seconds);
  if (small_)
    small_->solve_in_place(x);
  else if (dense_)
    dense_->solve_in_place(x);
  else
    sparse_->solve_in_place(x);
}

void SystemSolver::solve_in_place(std::span<double> x) const {
  obs::ScopedLatency lat(sm().solve_seconds);
  if (small_)
    small_->solve_in_place(x);
  else if (dense_)
    dense_->solve_in_place(x);
  else
    sparse_->solve_in_place(x);
}

void SystemSolver::solve_batch(std::span<double> cols, std::size_t k) const {
  obs::ScopedLatency lat(sm().solve_seconds);
  if (small_) {
    small_->solve_batch(cols, k);
    return;
  }
  const std::size_t n = size();
  for (std::size_t j = 0; j < k; ++j) {
    auto col = cols.subspan(j * n, n);
    if (dense_)
      dense_->solve_in_place(col);
    else
      sparse_->solve_in_place(col);
  }
}

std::size_t SystemSolver::size() const {
  if (small_) return small_->size();
  return dense_ ? dense_->size() : sparse_ ? sparse_->size() : 0;
}

double SystemSolver::min_pivot() const {
  if (small_) return small_->min_pivot();
  return dense_ ? dense_->min_pivot() : sparse_ ? sparse_->min_pivot() : 0.0;
}

}  // namespace dn
