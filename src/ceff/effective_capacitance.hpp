// C-effective iteration [3][4].
//
// A resistively-shielded RC load draws less charge than its total
// capacitance suggests; the driver therefore behaves as if loaded by a
// smaller "effective" capacitance. The classic fix-point: look up the
// Thevenin model at Ceff in the driver cell's table (ceff/thevenin_table.*,
// characterized once per process), simulate it into the *real* RC load,
// match the charge delivered up to the driver-output 50% crossing against
// an ideal capacitor charged to half swing, update Ceff, repeat. The first update
// is damped; later ones are secant steps on the fix-point residual
// g(C) - C, with the damped step as the fallback. The paper uses
// these iterations to pick the single effective load for both the Thevenin
// model and the one nonlinear driver simulation of the Rtr extraction.
#pragma once

#include <utility>
#include <vector>

#include "ceff/thevenin_table.hpp"
#include "matrix/solver.hpp"
#include "rcnet/net.hpp"

namespace dn {

struct CeffOptions {
  int max_iterations = 15;
  /// Picks the driver table (its reference sims' options are part of the
  /// store key); its `lte_tol` also bounds the inner linear sims.
  TheveninFitOptions fit{};
  SolverOptions solver{};      // Backend for the inner linear sims.
};

struct CeffResult {
  double ceff = 0.0;       // Last load looked up, converged or not.
  TheveninModel model;     // Table model at exactly `ceff`.
  int iterations = 0;
  bool converged = false;
};

/// `driver` switches its output in direction `output_rising` from a
/// full-swing input ramp of `input_slew` starting at `t_input_start`
/// (driver_input_ramp) into a load of `net` + grounded extra caps at local
/// nodes (e.g. coupling caps treated as grounded) + receiver pin cap at the
/// sink. The lumped total load seeds the iteration and must be > 0. Models
/// come from driver_tables().
CeffResult compute_ceff(
    const GateParams& driver, double input_slew, bool output_rising,
    double t_input_start, const RcTree& net,
    const std::vector<std::pair<int, double>>& extra_node_caps,
    double sink_pin_cap, const CeffOptions& opts = {});

}  // namespace dn
