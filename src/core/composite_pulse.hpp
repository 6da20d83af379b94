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

struct CompositeAlignment {
  std::vector<double> shifts;  // Per-aggressor time shift vs reference runs.
  Pwl at_sink;                 // Composite noise at the victim sink.
  PulseParams params;          // Measured height/width/peak of at_sink.
};

/// Aligns every aggressor's sink-noise peak to the peak time of the
/// largest-magnitude aggressor pulse and superposes.
CompositeAlignment align_aggressor_peaks(const SuperpositionEngine& eng,
                                         double victim_holding_r);

/// Composite pulse when aggressor k is additionally skewed by `extra_shift`
/// relative to the peak-aligned position (used to explore non-aligned
/// worst cases, Figure 6).
CompositeAlignment align_with_skew(const SuperpositionEngine& eng,
                                   double victim_holding_r, int k,
                                   double extra_shift);

}  // namespace dn
