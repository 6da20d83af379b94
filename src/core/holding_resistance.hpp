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

#include <optional>
#include <vector>

#include "circuit/circuit.hpp"
#include "core/superposition.hpp"
#include "sim/nonlinear_sim.hpp"

namespace dn {

/// The driver sims always run on the fixed dt grid: the extraction
/// measures the small DIFFERENCE V2 - V1 of two nearly identical
/// transitions, which only stays clean when both sims share one grid so
/// their discretization error cancels.
///
/// V2 is simulated only over the window where the injected current
/// matters (DESIGN.md §5): it resumes from V1's checkpointed state at the
/// last grid sample where In is still exactly zero (V'n is exactly 0
/// before that), and stops at the first grid sample after which the |In|
/// charge still to come is at most rel_tol / 100 of the total (V2 := V1
/// after it, and integral(In) is taken over the same span). The cut is
/// derived from rel_tol, not a separate knob.
struct RtrOptions {
  int max_iterations = 4;
  double rel_tol = 0.05;     // Convergence on |dRtr|/Rtr.
  double r_min = 1.0;        // Clamp range for pathological nets [Ohm].
  double r_max = 1e7;
  /// Chord-Newton budget for the driver sims; 0 = classic full Newton
  /// (sim/transient.hpp).
  int stale_jacobian_iters = 16;
};

struct RtrResult {
  double rtr = 0.0;          // Transient holding resistance [Ohm].
  double rth = 0.0;          // The victim Thevenin resistance, for reference.
  int iterations = 0;
  bool converged = false;
  Pwl vn_linear;             // Step 1: noise at the victim root (with Rth).
  Pwl in_current;            // Step 2: injected noise current.
  Pwl vn_nonlinear;          // Step 4: V'n = V2 - V1, on V1's grid.
};

/// The victim driver simulation of one engine: the driver-into-Ceff
/// circuit with a noise-current source at its output, built once; the
/// noiseless run V1 on it (source at zero); and V1's full MNA state every
/// kCheckpointStride samples, from which each V2 resumes with only the
/// injected waveform swapped. V1 depends only on the driver, its input,
/// Ceff and the time grid, so every extraction on the same engine (one
/// per model/alignment pass) shares it. Not copyable: the simulator
/// holds a reference to the circuit.
struct NoiselessDriverSim {
  static constexpr int kCheckpointStride = 32;

  NoiselessDriverSim() = default;
  NoiselessDriverSim(const NoiselessDriverSim&) = delete;
  NoiselessDriverSim& operator=(const NoiselessDriverSim&) = delete;

  Pwl v1;                                        // Empty until first use.
  std::vector<std::vector<double>> checkpoints;  // V1 state, sample j*stride.
  Circuit ckt;
  NodeId out = kGround;
  int noise_src = -1;                            // Injection isource index.
  std::optional<NonlinearSim> sim;
};

/// Computes Rtr for the victim driver of `eng`'s net with the aggressor
/// time shifts currently in effect (one shift per aggressor; the shift is
/// applied to each aggressor's reference-position noise waveform).
/// `active`, when non-null, masks window/correlation-pruned aggressors
/// out of the injected noise (core/composite_pulse.hpp). `noiseless`,
/// when non-null, is filled with V1 on first use and reused afterwards;
/// the result is bit-identical either way.
///
/// Metrics: `rtr.driver_steps` counts the V1 and V2 grid steps actually
/// simulated; `rtr.window_share` records, per V2, the share of the V2
/// grid it simulated (0 when In is zero on the whole grid).
RtrResult compute_rtr(const SuperpositionEngine& eng,
                      const std::vector<double>& shifts,
                      const RtrOptions& opts = {},
                      const std::vector<char>* active = nullptr,
                      NoiselessDriverSim* noiseless = nullptr);

/// Differentiates a waveform numerically on a uniform grid of step dt.
Pwl differentiate(const Pwl& w, double dt);

/// Holding resistance of a QUIET victim (functional-noise analysis): the
/// driver sits at a rail, where its conductance is triode-strong — far
/// stronger than the transition-aggregate Rth. Same area-matching recipe
/// with a canonical triangular probe current of the given width.
double quiet_holding_resistance(const GateParams& driver, bool output_high,
                                double ceff, double probe_width = 150e-12,
                                double probe_amp = 50e-6);

}  // namespace dn
