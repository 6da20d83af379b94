// End-to-end delay-noise analysis for one coupled net — the paper's flow:
//
//   characterize drivers (Ceff + Thevenin)            [ceff/]
//   -> iterate:  align aggressor peaks -> composite   [core/composite_pulse]
//                choose composite-vs-victim alignment [core/alignment*]
//                recompute victim holding R (Rtr)     [core/holding_resistance]
//   -> superpose, simulate the receiver, report the extra delay.
//
// The linear-model <-> alignment iteration is the one described at the end
// of the paper's Section 1 ("it is impossible to determine one without
// first determining the other... in practice one or two iterations").
#pragma once

#include "core/alignment.hpp"
#include "core/alignment_table.hpp"
#include "core/composite_pulse.hpp"
#include "core/superposition.hpp"
#include "util/degradation.hpp"

namespace dn {

enum class AlignmentMethod {
  Predicted,          // 8-point pre-characterization table (paper Section 3.2).
  Exhaustive,         // Exhaustive receiver-output search (reference).
  ReceiverInputPeak,  // Method of [5]: maximize the receiver-INPUT delay.
};

const char* alignment_method_name(AlignmentMethod m);

struct DelayNoiseOptions {
  bool use_transient_holding = true;  // false = traditional Thevenin holding.
  AlignmentMethod method = AlignmentMethod::Exhaustive;
  const AlignmentTable* table = nullptr;  // Required for Predicted.
  /// Cap on the model <-> alignment fix-point's Rtr steps (it stops
  /// earlier once a step moves the holding R by less than kRtrRelTol).
  int model_alignment_iterations = 2;
  /// Search grid, sim accuracy and the caller's scan domain. Before the
  /// search runs, the analysis intersects the net's own constraints into
  /// that domain (DESIGN.md §13): per-aggressor switching windows
  /// (AggressorDesc::window_early/late) and pairwise exclusions
  /// (CoupledNet::exclusions). A no-op on nets carrying neither.
  AlignmentSearchOptions search{};
  /// Which degradation-ladder rungs (DESIGN.md §10) this analysis may
  /// take. Recorded steps surface in DelayNoiseResult::degradations.
  DegradePolicy degrade{};
};

struct DelayNoiseResult {
  // Combined interconnect + receiver delays (receiver-output 50% crossing).
  double nominal_t50 = 0.0;  // Without noise.
  double noisy_t50 = 0.0;    // With worst-aligned noise.
  double delay_noise() const { return noisy_t50 - nominal_t50; }

  // Interconnect-only delays (receiver-input 50% crossing).
  double nominal_input_t50 = 0.0;
  double noisy_input_t50 = 0.0;
  double input_delay_noise() const { return noisy_input_t50 - nominal_input_t50; }

  double rth = 0.0;       // Victim Thevenin resistance.
  double holding_r = 0.0; // Holding resistance actually used (Rth or Rtr).
  int rtr_iterations = 0;  // Rtr steps the fix-point took (0: Thevenin).

  /// Aggressors removed from the composite by the pre-search pruning:
  /// window-infeasible (cannot co-switch with the stronger aggressors
  /// kept) and exclusion-dominated (logic correlation). Zero on nets
  /// without windows/exclusions.
  int aggressors_pruned_window = 0;
  int aggressors_pruned_exclusion = 0;

  CompositeAlignment composite;  // Final composite pulse (peak-aligned).
  AlignmentResult alignment;     // Final composite-vs-victim alignment.
  Pwl noiseless_sink;
  Pwl noisy_sink;

  /// Degradation-ladder steps taken for this net (empty on the clean
  /// path). Filled by the Status boundary (NoiseAnalyzer::try_analyze)
  /// from the ambient degrade log; a non-empty list marks the result as
  /// "degraded" in batch reports.
  std::vector<Degradation> degradations;
};

/// Analyzes the engine's coupled net. The engine's characterization is
/// reused across calls (e.g. to compare methods on the same net).
DelayNoiseResult analyze_delay_noise(const SuperpositionEngine& eng,
                                     const DelayNoiseOptions& opts = {});

/// Absolute per-aggressor input shifts implied by a result (relative to
/// the reference input ramps, which start at kInputRampStart):
/// peak-alignment shifts plus the composite alignment shift. Feed these to
/// golden_nonlinear().
std::vector<double> absolute_shifts(const DelayNoiseResult& r);

}  // namespace dn
