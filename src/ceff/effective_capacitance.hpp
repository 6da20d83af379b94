// C-effective iteration [3][4].
//
// A resistively-shielded RC load draws less charge than its total
// capacitance suggests; the driver therefore behaves as if loaded by a
// smaller "effective" capacitance. The classic fix-point: characterize the
// Thevenin model at Ceff, simulate it into the *real* RC load, match the
// charge delivered up to the driver-output 50% crossing against an ideal
// capacitor charged to half swing, update Ceff, repeat. The first update
// is damped; later ones are secant steps on the fix-point residual
// g(C) - C, with the damped step as the fallback. The paper uses
// these iterations to pick the single effective load for both the Thevenin
// model and the one nonlinear driver simulation of the Rtr extraction.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "ceff/thevenin.hpp"
#include "matrix/solver.hpp"
#include "rcnet/net.hpp"

namespace dn {

struct CeffOptions {
  int max_iterations = 15;
  /// Its `lte_tol` also bounds the inner linear sims; its `warm` chain,
  /// when set, carries the DC point from each fit to the next.
  TheveninFitOptions fit{};
  SolverOptions solver{};      // Backend for the inner linear sims.
};

struct CeffResult {
  double ceff = 0.0;       // Last load fit, converged or not.
  TheveninModel model;     // Thevenin fit at exactly `ceff`.
  int iterations = 0;
  bool converged = false;
};

/// Populates a circuit with the load network and returns the port node the
/// driver attaches to.
using LoadBuilder = std::function<NodeId(Circuit&)>;

/// General form: `c_total` seeds the iteration (the lumped total load).
CeffResult compute_ceff(const GateParams& driver, const Pwl& vin,
                        const LoadBuilder& build_load, double c_total,
                        const CeffOptions& opts = {});

/// Net form: load = `net` + grounded extra caps at local nodes (e.g.
/// coupling caps treated as grounded) + receiver pin cap at the sink.
CeffResult compute_ceff_for_net(
    const GateParams& driver, const Pwl& vin, const RcTree& net,
    const std::vector<std::pair<int, double>>& extra_node_caps,
    double sink_pin_cap, const CeffOptions& opts = {});

}  // namespace dn
