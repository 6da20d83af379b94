#include "matrix/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace dn {

SparseMatrix SparseMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                         const std::vector<Triplet>& triplets) {
  for (const auto& e : triplets)
    if (e.r >= rows || e.c >= cols)
      throw std::invalid_argument("SparseMatrix::from_triplets: index out of range");
  std::vector<Triplet> t = triplets;
  std::sort(t.begin(), t.end(), [](const Triplet& a, const Triplet& b) {
    return a.r != b.r ? a.r < b.r : a.c < b.c;
  });

  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_.reserve(t.size());
  m.val_.reserve(t.size());
  for (std::size_t i = 0; i < t.size();) {
    const std::size_t r = t[i].r, c = t[i].c;
    double acc = 0.0;
    for (; i < t.size() && t[i].r == r && t[i].c == c; ++i) acc += t[i].v;
    m.col_.push_back(c);
    m.val_.push_back(acc);
    ++m.row_ptr_[r + 1];
  }
  for (std::size_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  return m;
}

SparseMatrix SparseMatrix::from_dense(const Matrix& m, double drop_tol) {
  SparseMatrix s;
  s.rows_ = m.rows();
  s.cols_ = m.cols();
  s.row_ptr_.assign(m.rows() + 1, 0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      const double v = m(r, c);
      if (std::abs(v) > drop_tol) {
        s.col_.push_back(c);
        s.val_.push_back(v);
      }
    }
    s.row_ptr_[r + 1] = s.col_.size();
  }
  return s;
}

SparseMatrix SparseMatrix::combine(double alpha, const SparseMatrix& a,
                                   double beta, const SparseMatrix& b) {
  if (a.rows_ != b.rows_ || a.cols_ != b.cols_)
    throw std::invalid_argument("SparseMatrix::combine: shape mismatch");
  SparseMatrix m;
  m.rows_ = a.rows_;
  m.cols_ = a.cols_;
  m.row_ptr_.assign(a.rows_ + 1, 0);
  m.col_.reserve(std::max(a.nnz(), b.nnz()));
  m.val_.reserve(std::max(a.nnz(), b.nnz()));
  for (std::size_t r = 0; r < a.rows_; ++r) {
    std::size_t pa = a.row_ptr_[r], pb = b.row_ptr_[r];
    const std::size_t ea = a.row_ptr_[r + 1], eb = b.row_ptr_[r + 1];
    while (pa < ea || pb < eb) {
      if (pb >= eb || (pa < ea && a.col_[pa] < b.col_[pb])) {
        m.col_.push_back(a.col_[pa]);
        m.val_.push_back(alpha * a.val_[pa]);
        ++pa;
      } else if (pa >= ea || b.col_[pb] < a.col_[pa]) {
        m.col_.push_back(b.col_[pb]);
        m.val_.push_back(beta * b.val_[pb]);
        ++pb;
      } else {
        m.col_.push_back(a.col_[pa]);
        m.val_.push_back(alpha * a.val_[pa] + beta * b.val_[pb]);
        ++pa;
        ++pb;
      }
    }
    m.row_ptr_[r + 1] = m.col_.size();
  }
  return m;
}

double SparseMatrix::density() const {
  const std::size_t cells = rows_ * cols_;
  return cells == 0 ? 1.0 : static_cast<double>(nnz()) / static_cast<double>(cells);
}

std::ptrdiff_t SparseMatrix::value_index(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) return -1;
  const auto first = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto last = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(first, last, c);
  if (it == last || *it != c) return -1;
  return it - col_.begin();
}

double SparseMatrix::at(std::size_t r, std::size_t c) const {
  const std::ptrdiff_t i = value_index(r, c);
  return i < 0 ? 0.0 : val_[static_cast<std::size_t>(i)];
}

void SparseMatrix::matvec(std::span<const double> x, std::span<double> y) const {
  if (x.size() != cols_ || y.size() != rows_)
    throw std::invalid_argument("SparseMatrix::matvec: size mismatch");
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p)
      acc += val_[p] * x[col_[p]];
    y[r] = acc;
  }
}

Vector SparseMatrix::operator*(const Vector& x) const {
  Vector y(rows_, 0.0);
  matvec(x, y);
  return y;
}

Matrix SparseMatrix::to_dense() const {
  Matrix m(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p)
      m(r, col_[p]) += val_[p];
  return m;
}

// ---------------------------------------------------------------------------
// Fill-reducing ordering.
// ---------------------------------------------------------------------------

std::vector<std::int32_t> min_degree_order(const SparseMatrix& a) {
  const std::size_t n = a.rows();
  // Symmetrized adjacency as sorted unique neighbor lists. Eliminated
  // nodes are removed from their neighbors' lists, so list size == degree.
  std::vector<std::vector<std::int32_t>> adj(n);
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t p = rp[r]; p < rp[r + 1]; ++p) {
      const std::size_t c = ci[p];
      if (c == r) continue;
      adj[r].push_back(static_cast<std::int32_t>(c));
      adj[c].push_back(static_cast<std::int32_t>(r));
    }
  }
  for (auto& nb : adj) {
    std::sort(nb.begin(), nb.end());
    nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
  }

  // Beyond this neighborhood size the clique update is O(deg^2) for little
  // ordering benefit; skipping it only degrades the fill heuristic.
  constexpr std::size_t kCliqueCap = 48;

  std::vector<char> alive(n, 1);
  std::vector<std::int32_t> order;
  order.reserve(n);
  auto remove_from = [](std::vector<std::int32_t>& list, std::int32_t v) {
    const auto it = std::lower_bound(list.begin(), list.end(), v);
    if (it != list.end() && *it == v) list.erase(it);
  };
  auto insert_into = [](std::vector<std::int32_t>& list, std::int32_t v) {
    const auto it = std::lower_bound(list.begin(), list.end(), v);
    if (it == list.end() || *it != v) list.insert(it, v);
  };

  for (std::size_t step = 0; step < n; ++step) {
    // Min current degree, smallest index on ties (deterministic).
    std::size_t best = n;
    std::size_t best_deg = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 0; i < n; ++i)
      if (alive[i] && adj[i].size() < best_deg) {
        best = i;
        best_deg = adj[i].size();
      }
    const std::int32_t v = static_cast<std::int32_t>(best);
    alive[best] = 0;
    order.push_back(v);

    const std::vector<std::int32_t> nb = std::move(adj[best]);
    adj[best].clear();
    for (const std::int32_t u : nb) remove_from(adj[static_cast<std::size_t>(u)], v);
    if (nb.size() <= kCliqueCap) {
      for (std::size_t i = 0; i < nb.size(); ++i)
        for (std::size_t j = i + 1; j < nb.size(); ++j) {
          insert_into(adj[static_cast<std::size_t>(nb[i])], nb[j]);
          insert_into(adj[static_cast<std::size_t>(nb[j])], nb[i]);
        }
    }
  }
  return order;
}

namespace {

// Threshold preference for the structural diagonal pivot (SparseLu).
constexpr double kPivotTol = 1e-3;

/// min_degree_order memoized on the sparsity pattern. The ordering is a
/// pure function of the pattern, costs O(n^2), and the analysis flow
/// factors the same few patterns dozens of times per net (victim and
/// aggressor circuit variants are re-instantiated per holding-resistance
/// iteration with different VALUES but identical structure). A hash
/// collision can only substitute another valid permutation — extra
/// fill-in at worst, never a wrong factorization, and the entry is
/// rejected anyway unless its size matches.
std::vector<std::int32_t> min_degree_order_cached(const SparseMatrix& a) {
  static std::mutex mu;
  static std::unordered_map<std::uint64_t, std::vector<std::int32_t>> cache;
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the pattern.
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(a.rows());
  mix(a.nnz());
  for (const auto v : a.row_ptr()) mix(static_cast<std::uint64_t>(v));
  for (const auto v : a.col_idx()) mix(static_cast<std::uint64_t>(v));
  {
    std::lock_guard<std::mutex> lock(mu);
    const auto it = cache.find(h);
    if (it != cache.end() && it->second.size() == a.rows()) return it->second;
  }
  std::vector<std::int32_t> order = min_degree_order(a);
  std::lock_guard<std::mutex> lock(mu);
  if (cache.size() >= 128) cache.clear();  // Bound long batch runs.
  cache.emplace(h, order);
  return order;
}

}  // namespace

// ---------------------------------------------------------------------------
// SparseLu.
// ---------------------------------------------------------------------------

StatusOr<SparseLu> SparseLu::make(const SparseMatrix& a) {
  SparseLu f;
  Status s = f.factor_fresh(a);
  if (!s.ok()) return s;
  return f;
}

Status SparseLu::factor_fresh(const SparseMatrix& a) {
  if (a.rows() != a.cols())
    return Status::InvalidArgument("SparseLu: matrix not square");
  if (a.rows() == 0) return Status::InvalidArgument("SparseLu: empty matrix");
  n_ = a.rows();
  a_nnz_ = a.nnz();

  // CSC view of the pattern with a map back into the CSR values array.
  const auto rp = a.row_ptr();
  const auto acols = a.col_idx();
  cp_.assign(n_ + 1, 0);
  for (std::size_t p = 0; p < a.nnz(); ++p) ++cp_[acols[p] + 1];
  for (std::size_t c = 0; c < n_; ++c) cp_[c + 1] += cp_[c];
  ci_.resize(a.nnz());
  cmap_.resize(a.nnz());
  {
    std::vector<std::int32_t> next(cp_.begin(), cp_.end() - 1);
    for (std::size_t r = 0; r < n_; ++r)
      for (std::size_t p = rp[r]; p < rp[r + 1]; ++p) {
        const std::size_t slot = static_cast<std::size_t>(next[acols[p]]++);
        ci_[slot] = static_cast<std::int32_t>(r);
        cmap_[slot] = static_cast<std::int32_t>(p);
      }
  }

  q_ = min_degree_order_cached(a);
  pinv_.assign(n_, -1);
  lp_.assign(1, 0);
  li_.clear();
  lx_.clear();
  up_.assign(1, 0);
  ui_.clear();
  ux_.clear();
  udiag_.assign(n_, 0.0);
  min_pivot_ = std::numeric_limits<double>::infinity();

  const auto avals = a.values();
  std::vector<double> x(n_, 0.0);        // Dense work, orig-row indexed.
  std::vector<std::int32_t> mark(n_, -1);
  std::vector<std::int32_t> topo;        // Postorder of the reach DFS.
  std::vector<std::int32_t> stack_node, stack_ptr;
  topo.reserve(64);

  for (std::size_t k = 0; k < n_; ++k) {
    const std::int32_t col = q_[k];
    const std::int32_t km = static_cast<std::int32_t>(k);

    // Symbolic: reach of A(:,col)'s pattern through the graph of L.
    topo.clear();
    for (std::int32_t t = cp_[col]; t < cp_[col + 1]; ++t) {
      const std::int32_t start = ci_[t];
      if (mark[start] == km) continue;
      mark[start] = km;
      stack_node.assign(1, start);
      stack_ptr.assign(1, pinv_[start] >= 0 ? lp_[pinv_[start]] : 0);
      while (!stack_node.empty()) {
        const std::int32_t j = stack_node.back();
        const std::int32_t jend = pinv_[j] >= 0 ? lp_[pinv_[j] + 1] : 0;
        bool descended = false;
        while (stack_ptr.back() < jend) {
          const std::int32_t r = li_[static_cast<std::size_t>(stack_ptr.back()++)];
          if (mark[r] != km) {
            mark[r] = km;
            stack_node.push_back(r);
            stack_ptr.push_back(pinv_[r] >= 0 ? lp_[pinv_[r]] : 0);
            descended = true;
            break;
          }
        }
        if (descended) continue;
        topo.push_back(j);
        stack_node.pop_back();
        stack_ptr.pop_back();
      }
    }

    // Numeric: x = L \ A(:,col), processed in reverse postorder (parents
    // before their DFS children = topological order of the updates).
    for (std::int32_t t = cp_[col]; t < cp_[col + 1]; ++t)
      x[ci_[t]] = avals[static_cast<std::size_t>(cmap_[t])];
    for (std::size_t i = topo.size(); i-- > 0;) {
      const std::int32_t j = topo[i];
      const std::int32_t J = pinv_[j];
      if (J < 0) continue;
      const double xj = x[j];
      if (xj == 0.0) continue;
      for (std::int32_t p = lp_[J]; p < lp_[J + 1]; ++p)
        x[li_[static_cast<std::size_t>(p)]] -= lx_[static_cast<std::size_t>(p)] * xj;
    }

    // Pivot: largest unpivotal magnitude; prefer the structural diagonal
    // when it is within kPivotTol of the max (keeps the ordering's fill).
    double amax = 0.0;
    std::int32_t ipiv = -1;
    for (const std::int32_t j : topo) {
      if (pinv_[j] >= 0) continue;
      const double m = std::abs(x[j]);
      if (m > amax) {
        amax = m;
        ipiv = j;
      }
    }
    if (!(amax > 0.0) || !std::isfinite(amax))
      return Status::Internal("SparseLu: singular matrix (column " +
                              std::to_string(col) + ")");
    if (pinv_[col] < 0 && std::abs(x[col]) >= kPivotTol * amax) ipiv = col;
    const double pivot = x[ipiv];
    min_pivot_ = std::min(min_pivot_, std::abs(pivot));
    pinv_[ipiv] = km;
    udiag_[k] = pivot;
    x[ipiv] = 0.0;

    for (const std::int32_t j : topo) {
      if (j == ipiv) continue;
      if (pinv_[j] >= 0) {
        ui_.push_back(pinv_[j]);
        ux_.push_back(x[j]);
      } else {
        li_.push_back(j);  // Orig row id; remapped to pivot coords below.
        lx_.push_back(x[j] / pivot);
      }
      x[j] = 0.0;
    }
    up_.push_back(static_cast<std::int32_t>(ui_.size()));
    lp_.push_back(static_cast<std::int32_t>(li_.size()));
  }

  // Remap L's row ids to pivot coordinates, then sort every factor column
  // ascending. Ascending U order is a valid (topological) replay order for
  // refactor(): entry j only depends on L columns j' < j.
  for (auto& r : li_) r = pinv_[r];
  std::vector<std::pair<std::int32_t, double>> tmp;
  auto sort_cols = [&tmp](std::vector<std::int32_t>& ptr,
                          std::vector<std::int32_t>& idx,
                          std::vector<double>& val) {
    for (std::size_t k = 0; k + 1 < ptr.size(); ++k) {
      const std::size_t b = static_cast<std::size_t>(ptr[k]);
      const std::size_t e = static_cast<std::size_t>(ptr[k + 1]);
      tmp.clear();
      for (std::size_t p = b; p < e; ++p) tmp.emplace_back(idx[p], val[p]);
      std::sort(tmp.begin(), tmp.end());
      for (std::size_t p = b; p < e; ++p) {
        idx[p] = tmp[p - b].first;
        val[p] = tmp[p - b].second;
      }
    }
  };
  sort_cols(up_, ui_, ux_);
  sort_cols(lp_, li_, lx_);
  return Status::Ok();
}

Status SparseLu::refactor(const SparseMatrix& a) {
  if (n_ == 0) return Status::Internal("SparseLu::refactor: not factored");
  if (a.rows() != n_ || a.cols() != n_ || a.nnz() != a_nnz_)
    return Status::InvalidArgument("SparseLu::refactor: pattern mismatch");

  const auto avals = a.values();
  std::vector<double> x(n_, 0.0);  // Pivot-coordinate work vector.
  min_pivot_ = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < n_; ++k) {
    const std::int32_t col = q_[k];
    for (std::int32_t t = cp_[col]; t < cp_[col + 1]; ++t)
      x[pinv_[ci_[t]]] = avals[static_cast<std::size_t>(cmap_[t])];

    for (std::int32_t p = up_[k]; p < up_[k + 1]; ++p) {
      const std::int32_t j = ui_[static_cast<std::size_t>(p)];
      const double xj = x[j];
      ux_[static_cast<std::size_t>(p)] = xj;
      if (xj == 0.0) continue;
      for (std::int32_t pl = lp_[j]; pl < lp_[j + 1]; ++pl)
        x[li_[static_cast<std::size_t>(pl)]] -=
            lx_[static_cast<std::size_t>(pl)] * xj;
    }

    const double pivot = x[k];
    if (pivot == 0.0 || !std::isfinite(pivot))
      return Status::Internal(
          "SparseLu::refactor: zero pivot (column " + std::to_string(col) +
          "); re-pivot with a fresh factorization");
    udiag_[k] = pivot;
    min_pivot_ = std::min(min_pivot_, std::abs(pivot));
    x[k] = 0.0;
    for (std::int32_t pl = lp_[static_cast<std::size_t>(k)];
         pl < lp_[k + 1]; ++pl) {
      const std::size_t s = static_cast<std::size_t>(pl);
      lx_[s] = x[li_[s]] / pivot;
      x[li_[s]] = 0.0;
    }
    for (std::int32_t p = up_[k]; p < up_[k + 1]; ++p)
      x[ui_[static_cast<std::size_t>(p)]] = 0.0;
  }
  return Status::Ok();
}

double SparseLu::fill_ratio() const {
  return a_nnz_ == 0 ? 0.0
                     : static_cast<double>(nnz_factors()) /
                           static_cast<double>(a_nnz_);
}

Vector SparseLu::solve(std::span<const double> b) const {
  if (b.size() != n_)
    throw std::invalid_argument("SparseLu::solve: size mismatch");
  Vector x(b.begin(), b.end());
  solve_in_place(x);
  return x;
}

void SparseLu::solve_in_place(std::span<double> x) const {
  if (x.size() != n_)
    throw std::invalid_argument("SparseLu::solve_in_place: size mismatch");
  scratch_.assign(n_, 0.0);  // Reuses capacity after the first solve.
  std::vector<double>& y = scratch_;
  for (std::size_t i = 0; i < n_; ++i) y[static_cast<std::size_t>(pinv_[i])] = x[i];
  // Forward: L has implicit unit diagonal.
  for (std::size_t k = 0; k < n_; ++k) {
    const double yk = y[k];
    if (yk == 0.0) continue;
    for (std::int32_t p = lp_[k]; p < lp_[k + 1]; ++p)
      y[static_cast<std::size_t>(li_[static_cast<std::size_t>(p)])] -=
          lx_[static_cast<std::size_t>(p)] * yk;
  }
  // Backward: column-oriented U with the diagonal in udiag_.
  for (std::size_t k = n_; k-- > 0;) {
    const double yk = y[k] / udiag_[k];
    y[k] = yk;
    if (yk == 0.0) continue;
    for (std::int32_t p = up_[k]; p < up_[k + 1]; ++p)
      y[static_cast<std::size_t>(ui_[static_cast<std::size_t>(p)])] -=
          ux_[static_cast<std::size_t>(p)] * yk;
  }
  for (std::size_t k = 0; k < n_; ++k) x[static_cast<std::size_t>(q_[k])] = y[k];
}

}  // namespace dn
