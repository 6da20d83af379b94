// Alignment of the composite noise pulse vs the victim transition
// (paper Section 3.2) — evaluation primitives and the two search-based
// methods. The 8-point pre-characterization predictor lives in
// core/alignment_table.hpp.
#pragma once

#include <limits>
#include <vector>

#include "devices/gate.hpp"
#include "waveform/pulse.hpp"

namespace dn {

/// Feasible domain for the composite-pulse peak time: one closed interval.
/// `analyze_delay_noise` (core/delay_noise.cpp) intersects the active
/// aggressors' switching windows into one of these BEFORE the alignment
/// search runs, so infeasible aggressor offsets are never probed (each
/// probe costs a nonlinear receiver simulation). Logic correlation never
/// punches holes: it drops the weaker aggressor of a pair instead.
///
/// A default-constructed domain is UNCONSTRAINED (every time feasible);
/// a constrained domain whose interval has been intersected away is
/// EMPTY (no feasible alignment — the noise cannot line up with the
/// victim at all).
class ScanDomain {
 public:
  ScanDomain() = default;

  /// The single-interval domain [lo, hi] (empty when hi < lo).
  static ScanDomain interval(double lo, double hi);

  bool unconstrained() const { return !constrained_; }
  bool empty() const { return constrained_ && hi_ < lo_; }

  /// Constrains the domain to [lo, hi] (set intersection).
  void intersect(double lo, double hi);

  bool contains(double t) const;
  /// Nearest feasible point to `t` (t itself when unconstrained/empty).
  double clamp(double t) const;
  /// Bounds of the feasible interval; meaningless when unconstrained/empty.
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  /// Deterministic sample points across the feasible part of [lo, hi].
  /// Unconstrained — or an interval covering all of [lo, hi] — yields
  /// exactly linspace(lo, hi, n), so a window that excludes nothing
  /// changes nothing (the conservatism guarantee the flow-property tests
  /// pin); otherwise linspace over the covered part. A part of zero width
  /// is one point, probed once. Returns empty when nothing of [lo, hi] is
  /// feasible.
  std::vector<double> sample(double lo, double hi, int n) const;

  bool operator==(const ScanDomain&) const = default;

 private:
  void set_empty();

  bool constrained_ = false;
  double lo_ = -std::numeric_limits<double>::infinity();
  double hi_ = std::numeric_limits<double>::infinity();
};

/// Receiver evaluation of a (possibly noisy) input waveform: one nonlinear
/// simulation of the receiver gate into its load.
struct ReceiverEval {
  double t_out_50 = 0.0;   // Final 50%-Vdd crossing time at the output [s].
  double out_noise_peak = 0.0;  // Residual noise peak at the output [V].
  Pwl output;
};

/// The only receiver-sim path of the flow: `receiver` is the receiver
/// gate into its load (a kSingle GateSim), re-driven with `vin`.
/// `input_rising` is the direction of the victim transition at the
/// receiver input; the output crossing is measured in the corresponding
/// output direction (inverted for inverting receivers). Throws if the
/// output never completes its transition. `lte_tol` > 0 enables adaptive
/// stepping in the receiver sim (dt stays the accuracy floor); `warm` is
/// the DC warm-start chain across repeated evaluations (GateSim).
///
/// Metrics: `alignment.receiver_evals` counts every call, inside a
/// `receiver.eval` trace span.
ReceiverEval evaluate_receiver(GateSim& receiver, const Pwl& vin,
                               bool input_rising, double dt = 1e-12,
                               double lte_tol = 0.0, Vector* warm = nullptr,
                               int stale_jacobian_iters = -1);

/// Result of choosing a composite-pulse alignment.
struct AlignmentResult {
  double shift = 0.0;        // Time shift applied to the composite pulse.
  double t_peak = 0.0;       // Pulse peak time after the shift.
  double align_voltage = 0.0;  // Noiseless victim value at t_peak.
  double t_out_50 = 0.0;     // Receiver-output 50% crossing with this shift.
};

struct AlignmentSearchOptions {
  int coarse_points = 33;
  int fine_points = 17;
  double dt = 1e-12;
  /// LTE bound for the adaptive receiver sims [V]; 0 = fixed dt grid.
  double lte_tol = 5e-4;
  /// Chord-Newton budget for the receiver sims; 0 = classic full Newton
  /// (sim/transient.hpp).
  int stale_jacobian_iters = 16;
  /// Warm-start each probe's receiver sim from the previous probe's
  /// operating point (the quiet input level — and hence the DC solution —
  /// is the same at every alignment). Also chains the receiver
  /// evaluations of one net on the Predicted path.
  bool warm_start = true;
  /// Feasibility of the pulse peak time (absolute): the one home of every
  /// timing-window constraint. A caller's window is
  /// ScanDomain::interval(lo, hi); the flow intersects the active
  /// aggressors' switching windows into it. Every search method
  /// samples or clamps to feasible points only; an unconstrained domain
  /// reproduces the unpruned scan bit-for-bit.
  ScanDomain domain{};

  bool operator==(const AlignmentSearchOptions&) const = default;
};

/// Exhaustive worst-case alignment against the RECEIVER OUTPUT delay (the
/// paper's objective): sweeps the composite-pulse position, evaluating the
/// nonlinear receiver each time, and refines around the worst coarse point.
/// The sweep spans slew + pulse width + 100 ps on either side of the
/// noiseless 50% crossing at the sink, sampled over its feasible part
/// (`opts.domain`). When none of the span is feasible, the search probes
/// the domain point nearest that crossing and its neighbourhood. A point
/// domain is probed once.
AlignmentResult exhaustive_worst_alignment(const Pwl& noiseless_sink,
                                           const Pwl& composite,
                                           const GateParams& receiver,
                                           double rcv_load, bool victim_rising,
                                           const AlignmentSearchOptions& opts = {});

/// Method of [5]: maximize the RECEIVER INPUT (interconnect) delay by
/// placing the pulse peak where the noiseless transition crosses
/// Vdd/2 + Vn (rising victim; mirrored when falling). The receiver is then
/// evaluated once at that alignment for comparison.
AlignmentResult receiver_input_peak_alignment(
    const Pwl& noiseless_sink, const Pwl& composite, const GateParams& receiver,
    double rcv_load, bool victim_rising,
    const AlignmentSearchOptions& opts = {});

/// Helper: shift `composite` so its measured peak lands at `t_target`.
Pwl shift_pulse_peak_to(const Pwl& composite, double t_target, double* shift_out);

}  // namespace dn
