// Thevenin driver model: saturated-ramp source behind a resistance.
//
// This is the traditional linear driver model the paper starts from
// (Section 1): parameters (t0, dt, Rth) are fit so the analytic ramp->RC
// response matches the nonlinear gate's 10%/50%/90% crossing times into
// the same (effective) load [3]. The paper's contribution *replaces* Rth
// with the transient holding resistance when the driver is grounded in the
// superposition flow — but the Thevenin model remains the switching-driver
// model and the starting point of the Rtr extraction.
#pragma once

#include <optional>

#include "devices/gate.hpp"
#include "waveform/pwl.hpp"

namespace dn {

struct TheveninModel {
  double t0 = 0.0;    // Ramp start time [s].
  double tr = 1e-10;  // Ramp duration, 0-100% [s].
  double rth = 1.0;   // Thevenin resistance [Ohm].
  double v_from = 0.0, v_to = 1.8;  // Source levels.

  bool rising() const { return v_to > v_from; }

  /// The ideal source waveform (before the resistance), up to t_end.
  Pwl source(double t_end) const;

  /// Analytic response when driving a lumped capacitor `cload`.
  double response(double t, double cload) const;

  /// Time at which the response into `cload` crosses v_from + frac*(v_to-v_from).
  std::optional<double> response_crossing(double frac, double cload) const;
};

struct TheveninFitOptions {
  /// LTE bound for the adaptive nonlinear reference sim [V]; 0 = the fixed
  /// 1 ps grid.
  double lte_tol = 5e-4;
  /// Chord-Newton budget for the reference sim; 0 = classic full Newton
  /// (sim/transient.hpp).
  int stale_jacobian_iters = 16;
};

/// Output crossing times at 10/50/90% of a transition's swing [s].
struct Crossings {
  double t10 = 0.0, t50 = 0.0, t90 = 0.0;

  Crossings shifted(double dt) const { return {t10 + dt, t50 + dt, t90 + dt}; }
};

struct TheveninFit {
  TheveninModel model;
  Pwl reference;      // The nonlinear gate output used for the fit.
  double worst_residual = 0.0;  // Max |crossing-time error| after fit [s].
  bool converged = false;
};

/// The nonlinear reference of a fit: one run of `sim` (the driver into its
/// lumped load) with input `vin`, 3 ns past the input's end. An output
/// that has not swung 95% of Vdd by then is rerun with the tail doubled,
/// up to 48 ns (INV 0.1 needs 24 ns at the driver tables' top load).
/// Returns the output waveform; throws when the input does not switch or
/// the output does not settle.
Pwl simulate_reference(GateSim& sim, const Pwl& vin,
                       const TheveninFitOptions& opts = {});

/// Crossing times of a switching waveform at 10/50/90% of the way from its
/// first value to its last.
Crossings reference_crossings(const Pwl& out);

/// The 3-crossing fit: the model switching 0 -> vdd (`rising`) or
/// vdd -> 0 whose analytic response into `cload` crosses 10/50/90% at `c`.
/// Multi-start damped Newton on (t0, log tr, log rth); `worst_residual`,
/// when non-null, receives the max |crossing-time error| [s].
TheveninModel fit_crossings(const Crossings& c, bool rising, double vdd,
                            double cload, double* worst_residual = nullptr);

/// Fits (t0, tr, rth) for `gate` driven by `vin` into lumped `cload`:
/// simulate_reference, then fit_crossings on its crossings.
TheveninFit fit_thevenin(const GateParams& gate, const Pwl& vin, double cload,
                         const TheveninFitOptions& opts = {});

}  // namespace dn
