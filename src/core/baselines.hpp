// Golden references: full nonlinear simulation of the entire coupled
// circuit (the paper's "Spice simulation of the full non-linear circuit",
// Figure 13's X axis). Every gate is transistors, every parasitic is in
// one MNA system, no superposition.
#pragma once

#include <vector>

#include "core/superposition.hpp"

namespace dn {

struct GoldenResult {
  double nominal_t50 = 0.0;  // Receiver-output 50% crossing, quiet aggressors.
  double noisy_t50 = 0.0;    // Same with aggressors switching at `shifts`.
  double delay_noise() const { return noisy_t50 - nominal_t50; }

  double nominal_input_t50 = 0.0;  // Receiver-input (sink) crossings.
  double noisy_input_t50 = 0.0;
  double input_delay_noise() const { return noisy_input_t50 - nominal_input_t50; }

  Pwl noiseless_sink;
  Pwl noisy_sink;
  Pwl receiver_out_nominal;
  Pwl receiver_out_noisy;
};

/// Runs the two full nonlinear simulations (quiet / switching aggressors).
/// `shifts[k]` displaces aggressor k's input ramp from the reference
/// position, a ramp starting at kInputRampStart; `opts` fixes the shared
/// time frame (horizon, dt).
GoldenResult golden_nonlinear(const CoupledNet& net,
                              const std::vector<double>& shifts,
                              const SuperpositionOptions& opts = {});

}  // namespace dn
