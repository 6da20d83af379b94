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
  /// Optional DC warm-start chain for the reference sim (non-owning; see
  /// GateSim). The Ceff loop refits the same gate repeatedly with a
  /// slightly different cload; the DC operating point is identical every
  /// time.
  Vector* warm = nullptr;
};

struct TheveninFit {
  TheveninModel model;
  Pwl reference;      // The nonlinear gate output used for the fit.
  double worst_residual = 0.0;  // Max |crossing-time error| after fit [s].
  bool converged = false;
};

/// Fits (t0, tr, rth) for `gate` driven by `vin` into lumped `cload`.
/// The reference is one nonlinear simulation of the gate.
TheveninFit fit_thevenin(const GateParams& gate, const Pwl& vin, double cload,
                         const TheveninFitOptions& opts = {});

}  // namespace dn
