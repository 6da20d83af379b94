// Transient holding resistance Rtr (paper Section 2, Figures 4 & 5).
//
// The victim driver's Thevenin resistance Rth models its *aggregate*
// strength over a full transition; while a short noise pulse is injected
// mid-transition, the instantaneous small-signal conductance differs and
// the Thevenin-held victim under- or over-absorbs the noise. The fix:
//
//   1. Simulate each aggressor with the victim held by Rth (Figure 1(b))
//      and sum the noise voltages at the victim driver output: Vn(t).
//   2. Convert to the injected noise current through the simplified model
//      of Figure 4(a):  In = Vn/Rth + Cload * dVn/dt.
//   3. Nonlinearly simulate the victim driver into Cload (its effective
//      load) twice — without (V1) and with (V2) In injected at the output.
//      The true noise response is V'n = V2 - V1.
//   4. Pick Rtr so the *area* of the linear-model response matches:
//         Rtr = integral(V'n) / integral(In).
//   5. Re-run the aggressor noise with Rtr in place of Rth; optionally
//      iterate (one or two passes suffice in practice — we verify this).
//
// Rtr depends on the noise alignment relative to the victim transition, so
// the caller passes the aggressor shifts in effect.
#pragma once

#include <vector>

#include "core/superposition.hpp"

namespace dn {

/// Both driver sims (V1 without, V2 with the injected current) run as
/// one paired GateSim: two copies of the victim driver on one input and
/// supply, each into its own Ceff, the noise current on copy 2 only.
/// Both copies step on one grid (LTE-adaptive at the engine's lte_tol;
/// lte_tol 0 gives the fixed dt grid), so V'n = V2 - V1 carries no
/// grid-mismatch error and is exactly 0 until the current turns on.
/// Both integrals run over [0, horizon] (DESIGN.md §5). The sims take the
/// engine's dt, horizon, lte_tol and newton.stale_jacobian_iters.
struct RtrOptions {
  int max_iterations = 4;
};

inline constexpr double kRtrRelTol = 0.05;  // Convergence on |dRtr|/Rtr.
/// Clamp range of Rtr for pathological nets [Ohm].
inline constexpr double kRtrMin = 1.0;
inline constexpr double kRtrMax = 1e7;

struct RtrResult {
  double rtr = 0.0;          // Transient holding resistance [Ohm].
  double rth = 0.0;          // The victim Thevenin resistance, for reference.
  int iterations = 0;
  bool converged = false;
  Pwl vn_linear;             // Step 1: noise at the victim root (with Rth).
  Pwl in_current;            // Step 2: injected noise current.
  Pwl vn_nonlinear;          // Step 4: V'n = V2 - V1, on the paired grid.
};

/// Computes Rtr for the victim driver of `eng`'s net with the aggressor
/// time shifts currently in effect (one shift per aggressor; the shift is
/// applied to each aggressor's reference-position noise waveform).
/// `active`, when non-null, masks window/correlation-pruned aggressors
/// out of the injected noise (core/composite_pulse.hpp).
///
/// Metrics: `rtr.driver_steps` counts the paired driver grid steps
/// actually simulated.
RtrResult compute_rtr(const SuperpositionEngine& eng,
                      const std::vector<double>& shifts,
                      const RtrOptions& opts = {},
                      const std::vector<char>* active = nullptr);

/// Differentiates a waveform numerically on a uniform grid of step dt.
Pwl differentiate(const Pwl& w, double dt);

/// Holding resistance of a QUIET victim (functional-noise analysis): the
/// driver sits at a rail, where its conductance is triode-strong — far
/// stronger than the transition-aggregate Rth. Same area-matching recipe
/// (and the same paired driver sim, on the fixed 1 ps grid) with a
/// canonical triangular probe current of the given width.
double quiet_holding_resistance(const GateParams& driver, bool output_high,
                                double ceff, double probe_width = 150e-12,
                                double probe_amp = 50e-6);

}  // namespace dn
