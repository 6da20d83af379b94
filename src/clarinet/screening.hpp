// Crosstalk net screening: cheap per-net noise severity estimates used to
// order/filter nets before the expensive full analysis (the role Elmore-
// based metrics play in crosstalk net sorting; cf. Guardiani et al.).
//
// Estimate: victim-held RC divider peak of the composite coupling charge
//   vn_est ~ Vdd * Cc / (Cc + Cv + Cdrv_hold)  scaled by the ratio of the
//   aggressor edge rate to the victim's holding time constant,
// and a delay-noise proxy  dN_est ~ vn_est * slew_at_sink / Vdd,
// both computable from moments only (no simulation).
//
// API: try_screen_net() is the Status-based entry point (malformed nets
// come back as kInvalidArgument, never an exception). It is the Tier 1
// estimator of the fidelity ladder (clarinet/fidelity_ladder.hpp), the
// only pre-analysis triage the batch engine runs. rank_by_severity()
// orders nets by the same estimate for `dnoise_cli --screen`.
#pragma once

#include <vector>

#include "rcnet/net.hpp"
#include "util/status.hpp"

namespace dn {

struct ScreeningEstimate {
  double vn_est = 0.0;    // Estimated composite noise peak [V].
  double dn_est = 0.0;    // Estimated delay noise [s].
  double victim_tau = 0.0;  // Holding time constant proxy [s].
};

/// Saturated drive resistance proxy [ohm] of the device holding a net
/// while it switches (the one that absorbs the opposing noise). Shared by
/// every ladder tier so the Tier 0 bound and the Tier 1 estimate agree on
/// the physics and differ only in how much slack they keep.
double drive_resistance_proxy(const GateParams& g, bool rising_output);

/// Moment-level estimate for one coupled net (microseconds of work, no
/// transient simulation). Malformed nets come back as kInvalidArgument.
StatusOr<ScreeningEstimate> try_screen_net(const CoupledNet& net);

/// Indices of `nets` ordered most-severe-first by dn_est. Deterministic
/// at any thread count: dn_est ties break on the lower net index, and
/// malformed nets (try_screen_net failure) sort after every well-formed
/// net, ordered among themselves by index.
std::vector<std::size_t> rank_by_severity(const std::vector<CoupledNet>& nets);

}  // namespace dn
