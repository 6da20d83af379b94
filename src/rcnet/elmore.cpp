#include "rcnet/elmore.hpp"

#include <stdexcept>

namespace dn {

namespace {

struct TreeOrder {
  std::vector<int> parent;        // Parent node per node (-1 for root).
  std::vector<double> r_up;       // Resistance to the parent.
  std::vector<int> order;         // Topological (root-first) order.
};

TreeOrder order_tree(const RcTree& tree) {
  tree.validate();
  const std::size_t n = static_cast<std::size_t>(tree.num_nodes);
  std::vector<std::vector<std::pair<int, double>>> adj(n);
  for (const auto& r : tree.res) {
    adj[static_cast<std::size_t>(r.a)].emplace_back(r.b, r.r);
    adj[static_cast<std::size_t>(r.b)].emplace_back(r.a, r.r);
  }
  TreeOrder to;
  to.parent.assign(n, -2);
  to.r_up.assign(n, 0.0);
  to.order.reserve(n);
  std::vector<int> stack{0};
  to.parent[0] = -1;
  while (!stack.empty()) {
    const int u = stack.back();
    stack.pop_back();
    to.order.push_back(u);
    for (const auto& [v, r] : adj[static_cast<std::size_t>(u)]) {
      if (to.parent[static_cast<std::size_t>(v)] != -2) {
        if (v != to.parent[static_cast<std::size_t>(u)])
          throw std::invalid_argument("tree_moments: resistor loop in tree");
        continue;
      }
      to.parent[static_cast<std::size_t>(v)] = u;
      to.r_up[static_cast<std::size_t>(v)] = r;
      stack.push_back(v);
    }
  }
  if (to.order.size() != n)
    throw std::invalid_argument("tree_moments: disconnected tree");
  return to;
}

}  // namespace

TreeMoments tree_moments(const RcTree& tree,
                         const std::vector<double>& extra_cap) {
  const std::size_t n = static_cast<std::size_t>(tree.num_nodes);
  if (!extra_cap.empty() && extra_cap.size() != n)
    throw std::invalid_argument("tree_moments: extra_cap size mismatch");
  const TreeOrder to = order_tree(tree);

  std::vector<double> cap(n, 0.0);
  for (const auto& c : tree.caps) cap[static_cast<std::size_t>(c.node)] += c.c;
  if (!extra_cap.empty())
    for (std::size_t i = 0; i < n; ++i) cap[i] += extra_cap[i];

  // Upward pass: subtree capacitance.
  std::vector<double> cdown = cap;
  for (auto it = to.order.rbegin(); it != to.order.rend(); ++it) {
    const int u = *it;
    const int p = to.parent[static_cast<std::size_t>(u)];
    if (p >= 0) cdown[static_cast<std::size_t>(p)] +=
        cdown[static_cast<std::size_t>(u)];
  }
  // Downward pass: Elmore delay.
  std::vector<double> elmore(n, 0.0);
  for (const int u : to.order) {
    const int p = to.parent[static_cast<std::size_t>(u)];
    if (p >= 0)
      elmore[static_cast<std::size_t>(u)] =
          elmore[static_cast<std::size_t>(p)] +
          to.r_up[static_cast<std::size_t>(u)] *
              cdown[static_cast<std::size_t>(u)];
  }
  TreeMoments m;
  m.m1.resize(n);
  for (std::size_t i = 0; i < n; ++i) m.m1[i] = -elmore[i];
  return m;
}

double elmore_delay(const RcTree& tree, int node,
                    const std::vector<double>& extra_cap) {
  const TreeMoments m = tree_moments(tree, extra_cap);
  return -m.m1.at(static_cast<std::size_t>(node));
}

}  // namespace dn
