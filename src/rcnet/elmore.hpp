// Closed-form interconnect delay estimates on RC trees.
//
// Elmore delay: the first moment of the impulse response. It is the
// quick estimator every timing flow keeps next to simulation: the noise
// tool uses it for net ordering/filtering (cf. Guardiani et al.'s
// crosstalk net sorting), and the tests validate it against the
// transient simulator.
#pragma once

#include <vector>

#include "rcnet/net.hpp"

namespace dn {

/// First moment m1 of the transfer function from the root (node 0,
/// driven ideally) to every node of the tree.
struct TreeMoments {
  std::vector<double> m1;  // -m1[n] = Elmore delay to node n [s].
};

/// Computes m1 by the standard tree traversal. `extra_cap[n]` (may be
/// empty) adds lumped grounded cap per node (pin loads, grounded coupling).
/// Requires a tree (exactly one resistive path root->node); throws on
/// resistor loops.
TreeMoments tree_moments(const RcTree& tree,
                         const std::vector<double>& extra_cap = {});

/// Elmore delay to `node` [s] (= -m1).
double elmore_delay(const RcTree& tree, int node,
                    const std::vector<double>& extra_cap = {});

}  // namespace dn
