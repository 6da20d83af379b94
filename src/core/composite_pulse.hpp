// Aggressor-to-aggressor alignment (paper Section 3.1).
//
// The composite noise pulse is the superposition of all aggressor-induced
// noise pulses. Aligning all peaks coincident maximizes composite height
// (and minimizes width); the paper shows this is not always the true worst
// case once the receiver's low-pass filtering is considered, but that the
// error from using aligned peaks is < 5%, so the flow aligns peaks and
// moves the *composite* pulse as one unit afterwards.
#pragma once

#include <vector>

#include "core/superposition.hpp"
#include "waveform/pulse.hpp"

namespace dn {

/// Input shift that parks a pruned aggressor far past any simulation
/// horizon — equivalent to "never switches this cycle". Only used where a
/// real transient evaluates inputs pointwise (golden_nonlinear); the
/// linear composite drops pruned aggressors via the `active` mask instead.
constexpr double kDroppedAggressorShift = 1.0;  // [s]

struct CompositeAlignment {
  std::vector<double> shifts;  // Per-aggressor time shift vs reference runs.
  /// Participation mask from window/correlation pruning; empty = every
  /// aggressor contributes (the classic unpruned composite).
  std::vector<char> active;
  Pwl at_sink;                 // Composite noise at the victim sink.
  PulseParams params;          // Measured height/width/peak of at_sink.
};

/// Aligns every aggressor's sink-noise peak to the peak time of the
/// largest-magnitude aggressor pulse and superposes. `active`, when
/// non-null, excludes masked-out aggressors from both the anchor choice
/// and the superposition (at least one aggressor must stay active).
CompositeAlignment align_aggressor_peaks(
    const SuperpositionEngine& eng, double victim_holding_r,
    const std::vector<char>* active = nullptr);

/// Composite pulse when aggressor k is additionally skewed by `extra_shift`
/// relative to the peak-aligned position (used to explore non-aligned
/// worst cases, Figure 6).
CompositeAlignment align_with_skew(const SuperpositionEngine& eng,
                                   double victim_holding_r, int k,
                                   double extra_shift);

}  // namespace dn
