#include "circuit/mna.hpp"

#include <stdexcept>

namespace dn {

MnaSystem::MnaSystem(const Circuit& ckt)
    : ckt_(ckt),
      n_nodes_(ckt.num_nodes()),
      n_vsrc_(ckt.vsources().size()) {
  const std::size_t nv = static_cast<std::size_t>(n_nodes_ - 1);
  dim_ = nv + n_vsrc_;
  std::vector<Triplet> gt, ct;
  gt.reserve(4 * ckt.resistors().size() + 3 * n_vsrc_ + nv);
  ct.reserve(4 * (ckt.capacitors().size() + 4 * ckt.mosfets().size()));

  auto idx = [&](NodeId n) -> int {
    return n == kGround ? -1 : n - 1;  // Ground eliminated.
  };
  auto stamp_pair = [&](std::vector<Triplet>& t, NodeId a, NodeId b, double v) {
    const int ia = idx(a), ib = idx(b);
    if (ia >= 0) t.push_back({static_cast<std::size_t>(ia),
                              static_cast<std::size_t>(ia), v});
    if (ib >= 0) t.push_back({static_cast<std::size_t>(ib),
                              static_cast<std::size_t>(ib), v});
    if (ia >= 0 && ib >= 0) {
      t.push_back({static_cast<std::size_t>(ia), static_cast<std::size_t>(ib),
                   -v});
      t.push_back({static_cast<std::size_t>(ib), static_cast<std::size_t>(ia),
                   -v});
    }
  };

  // Conductances.
  for (const auto& r : ckt.resistors()) stamp_pair(gt, r.a, r.b, 1.0 / r.r);
  // Capacitances.
  for (const auto& c : ckt.capacitors()) stamp_pair(ct, c.a, c.b, c.c);
  // MOSFET device capacitances are linear and constant: stamp them here so
  // both simulators share one C matrix.
  for (const auto& m : ckt.mosfets()) {
    stamp_pair(ct, m.g, m.s, m.params.cgs());
    stamp_pair(ct, m.g, m.d, m.params.cgd());
    stamp_pair(ct, m.d, kGround, m.params.cdb());
    stamp_pair(ct, m.s, kGround, m.params.csb());
  }
  // Voltage sources: branch current unknowns.
  for (std::size_t k = 0; k < n_vsrc_; ++k) {
    const auto& vs = ckt.vsources()[k];
    const int ip = idx(vs.pos), in = idx(vs.neg);
    const std::size_t br = nv + k;
    if (ip >= 0) {
      gt.push_back({static_cast<std::size_t>(ip), br, 1.0});
      gt.push_back({br, static_cast<std::size_t>(ip), 1.0});
    }
    if (in >= 0) {
      gt.push_back({static_cast<std::size_t>(in), br, -1.0});
      gt.push_back({br, static_cast<std::size_t>(in), -1.0});
    }
  }
  // Gmin from every node to ground.
  for (std::size_t i = 0; i < nv; ++i) gt.push_back({i, i, kGmin});

  gs_ = SparseMatrix::from_triplets(dim_, dim_, gt);
  cs_ = SparseMatrix::from_triplets(dim_, dim_, ct);
}

Vector MnaSystem::rhs(double t) const {
  Vector b;
  rhs_into(t, b);
  return b;
}

void MnaSystem::rhs_into(double t, Vector& b) const {
  const std::size_t nv = static_cast<std::size_t>(n_nodes_ - 1);
  b.assign(dim(), 0.0);  // Reuses the buffer's capacity after first use.
  const auto& iss = ckt_.isources();
  src_cursor_.resize(iss.size() + n_vsrc_, 0);
  for (std::size_t j = 0; j < iss.size(); ++j) {
    const auto& is = iss[j];
    const double ival = is.i.at_hint(t, src_cursor_[j]);
    if (is.into != kGround) b[static_cast<std::size_t>(is.into - 1)] += ival;
    if (is.from != kGround) b[static_cast<std::size_t>(is.from - 1)] -= ival;
  }
  for (std::size_t k = 0; k < n_vsrc_; ++k)
    b[nv + k] = ckt_.vsources()[k].v.at_hint(t, src_cursor_[iss.size() + k]);
}

std::size_t MnaSystem::node_index(NodeId n) const {
  if (n <= kGround || n >= n_nodes_)
    throw std::invalid_argument("MnaSystem::node_index: bad node");
  return static_cast<std::size_t>(n - 1);
}

std::size_t MnaSystem::vsource_index(int k) const {
  if (k < 0 || static_cast<std::size_t>(k) >= n_vsrc_)
    throw std::invalid_argument("MnaSystem::vsource_index: bad index");
  return static_cast<std::size_t>(n_nodes_ - 1) + static_cast<std::size_t>(k);
}

double MnaSystem::node_voltage(const Vector& x, NodeId n) const {
  if (n == kGround) return 0.0;
  return x[node_index(n)];
}

}  // namespace dn
