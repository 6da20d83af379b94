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
  SolverBackend backend = opts.backend;
  if (backend == SolverBackend::kAuto)
    backend = (a.rows() < kDenseMaxDim || a.density() > kDensityThreshold)
                  ? SolverBackend::kDense
                  : SolverBackend::kSparse;

  obs::ScopedLatency lat(sm().factor_seconds);
  if (backend == SolverBackend::kSparse) {
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
  }
  sm().dense_picked.add();
  auto f = LuFactor::make(a);
  if (!f.ok()) return f.status();
  s.dense_.emplace(std::move(*f));
  return s;
}

Status SystemSolver::refactor(const SparseMatrix& a) {
  sm().refactors.add();
  obs::ScopedLatency lat(sm().factor_seconds);
  if (dense_) return dense_->refactor(a);
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
  auto f = LuFactor::make(a);
  if (!f.ok()) return f.status();
  dense_.emplace(std::move(*f));
  sparse_.reset();
  return Status::Ok();
}

Vector SystemSolver::solve(std::span<const double> b) const {
  obs::ScopedLatency lat(sm().solve_seconds);
  return dense_ ? dense_->solve(b) : sparse_->solve(b);
}

void SystemSolver::solve_in_place(std::span<double> x) const {
  obs::ScopedLatency lat(sm().solve_seconds);
  if (dense_)
    dense_->solve_in_place(x);
  else
    sparse_->solve_in_place(x);
}

void SystemSolver::solve_batch(std::span<double> cols, std::size_t k) const {
  obs::ScopedLatency lat(sm().solve_seconds);
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
  return dense_ ? dense_->size() : sparse_->size();
}

double SystemSolver::min_pivot() const {
  return dense_ ? dense_->min_pivot() : sparse_->min_pivot();
}

}  // namespace dn
