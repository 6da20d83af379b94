// Modified nodal analysis assembly.
//
// Builds the descriptor system  C x' + G x = b(t)  for a Circuit:
//   unknowns x = [ v_1 .. v_{N-1} | i_vsrc_0 .. ]   (ground eliminated)
// Linear R/C/V/I elements are stamped once here; MOSFETs are stamped per
// Newton iteration by the nonlinear simulator on top of these matrices.
//
// Stamping goes into triplets and lands in CSR (Gs()/Cs()) — for the
// paper's multi-thousand-node unreduced nets a dense G/C is O(n^2)
// memory before any solve happens. Callers that want a dense matrix
// ask for Gs().to_dense().
#pragma once

#include <vector>

#include "circuit/circuit.hpp"
#include "matrix/dense.hpp"
#include "matrix/sparse.hpp"

namespace dn {

/// Conductance from every node to ground [S], regularizing DC solves of
/// capacitively-floating nodes.
constexpr double kGmin = 1e-12;

class MnaSystem {
 public:
  /// Assembles the linear part of `ckt`, with kGmin from every node to
  /// ground.
  explicit MnaSystem(const Circuit& ckt);

  std::size_t dim() const { return dim_; }
  std::size_t num_node_vars() const { return n_nodes_ - 1; }

  /// Sparse stamps — the primary storage.
  const SparseMatrix& Gs() const { return gs_; }
  const SparseMatrix& Cs() const { return cs_; }

  /// Right-hand side at time t (independent sources evaluated at t).
  Vector rhs(double t) const;

  /// rhs() into a caller-owned buffer (resized to dim()): the transient
  /// hot loops re-fill one buffer per step instead of allocating. Source
  /// waveforms are evaluated through per-source segment cursors (stepping
  /// is near-monotone in t), bit-identical to Pwl::at.
  void rhs_into(double t, Vector& b) const;

  /// Index of node `n` in x (n must not be ground).
  std::size_t node_index(NodeId n) const;

  /// Index of vsource branch current `k` in x.
  std::size_t vsource_index(int k) const;

  /// Extracts a node voltage from a solution vector (0 for ground).
  double node_voltage(const Vector& x, NodeId n) const;

 private:
  const Circuit& ckt_;
  int n_nodes_ = 0;
  std::size_t n_vsrc_ = 0;
  std::size_t dim_ = 0;
  SparseMatrix gs_, cs_;
  // Per-source Pwl segment cursors for rhs_into (isources first, then
  // vsources). Not synchronized: an MnaSystem is per-analysis state,
  // never shared across threads. Stale cursors (e.g. after a
  // source-waveform swap) are validated and re-seeded by at_hint, never
  // trusted.
  mutable std::vector<std::size_t> src_cursor_;
};

}  // namespace dn
