// Tiered multi-fidelity screening ladder (DESIGN.md §13).
//
// The paper's full flow (Ceff/Thevenin characterization, Rtr iteration,
// composite pulse, worst-case alignment) costs tens of milliseconds per
// net; at chip scale almost all of that is spent proving that quiet nets
// are quiet. The ladder spends that effort only where it can matter:
//
//   Tier 0  closed-form coupled-RC delay-noise UPPER BOUND from moments
//           (microseconds, no simulation). Nets whose bound falls below
//           the violation threshold are pruned — provably, up to the
//           bound's calibrated safety factor, without a missed violation.
//   Tier 1  the moment-level severity estimate scaled by a conservative
//           margin. Sharper than Tier 0, still sim-free.
//   Tier 2  the full Rtr + nonlinear verification flow, run only for
//           survivors.
//
// Both cheap tiers read one validated moment pass per net (NetMoments):
// coupling and victim capacitance, the drive-resistance proxy, the
// victim's Elmore delay and holding time constant, and the aggressor
// edge range. Every decision records the tier that made it and the
// bound that justified pruning, so batch reports and the resident server
// can carry fidelity provenance through incremental re-analysis (a dirty
// net re-enters the ladder at Tier 0).
//
// The Tier-1 estimate also serves on its own: rank_by_severity() orders
// nets by it for `dnoise_cli --screen` (the role Elmore-based metrics
// play in crosstalk net sorting; cf. Guardiani et al.).
#pragma once

#include <cstddef>
#include <vector>

#include "rcnet/net.hpp"
#include "util/status.hpp"

namespace dn {

enum class FidelityTier {
  kTier0 = 0,  // Closed-form moment bound.
  kTier1 = 1,  // Moment estimate with conservative margin.
  kTier2 = 2,  // Full Rtr + nonlinear verification.
};

const char* fidelity_tier_name(FidelityTier t);

/// Saturated drive resistance proxy [ohm] of the device holding a net
/// while it switches (the one that absorbs the opposing noise).
double drive_resistance_proxy(const GateParams& g, bool rising_output);

/// The moments of one validated net that both cheap tiers read.
struct NetMoments {
  double vdd = 0.0;         // Victim supply [V].
  double cc = 0.0;          // Total coupling capacitance [F].
  double cv = 0.0;          // Victim wire + receiver input capacitance [F].
  double r_drv = 0.0;       // Victim drive-resistance proxy [ohm].
  double wire_tau = 0.0;    // Victim Elmore delay to the sink [s].
  double victim_tau = 0.0;  // Holding time constant proxy [s].
  double input_slew = 0.0;  // Victim input slew [s].
  /// Fastest and slowest aggressor edge proxies [s] (1e9 and 0 without
  /// aggressors).
  double t_edge_min = 1e9;
  double t_edge_max = 0.0;
};

/// Validates `net` and computes its moments (microseconds of work, no
/// transient simulation). Malformed nets come back as kInvalidArgument.
StatusOr<NetMoments> try_net_moments(const CoupledNet& net);

/// Tier 0: conservative closed-form bounds.
struct Tier0Bound {
  double vn_bound = 0.0;   // >= any achievable composite noise peak [V].
  double dn_bound = 0.0;   // >= the full-flow delay noise [s].
};
Tier0Bound tier0_bound(const NetMoments& m);

/// Tier 1: victim-held RC divider peak of the composite coupling charge
///   vn_est ~ Vdd * Cc / (Cc + Cv)  scaled by the ratio of the victim's
///   holding time constant to the fastest aggressor edge,
/// and a delay-noise proxy  dN_est ~ vn_est * transition / Vdd.
struct ScreeningEstimate {
  double vn_est = 0.0;      // Estimated composite noise peak [V].
  double dn_est = 0.0;      // Estimated delay noise [s].
};
ScreeningEstimate tier1_estimate(const NetMoments& m);

/// try_net_moments() followed by tier1_estimate().
StatusOr<ScreeningEstimate> try_screen_net(const CoupledNet& net);

/// Indices of `nets` ordered most-severe-first by dn_est. Deterministic
/// at any thread count: dn_est ties break on the lower net index, and
/// malformed nets (try_screen_net failure) sort after every well-formed
/// net, ordered among themselves by index.
std::vector<std::size_t> rank_by_severity(const std::vector<CoupledNet>& nets);

struct FidelityLadderOptions {
  /// Master switch. Off = no triage: every net runs the full flow and
  /// batch output carries no ladder fields.
  bool enabled = false;
  /// Violation threshold [s]: the delay noise that matters downstream.
  /// Nets whose tier bound falls below it are pruned. Negative prunes
  /// nothing (the ladder only classifies).
  double dn_threshold = 5e-12;
  /// Multiplier applied to the Tier-1 estimate before comparing against
  /// the threshold. Calibrated so margin * dn_est stays an upper bound on
  /// the Tier-2 result across the random-net distributions the property
  /// tests sweep (tests/test_fidelity_ladder.cpp).
  double tier1_margin = 3.0;
};

/// One net's path through the ladder.
struct LadderDecision {
  /// The tier that produced the verdict: a pruning tier, or kTier2 =
  /// "go analyze".
  FidelityTier decided_by = FidelityTier::kTier2;
  bool pruned = false;
  /// Tightest delay-noise upper bound established by the cheap tiers [s]
  /// — the figure that justifies a prune (and bounds any missed
  /// violation).
  double dn_bound = 0.0;
  Tier0Bound tier0;
  ScreeningEstimate tier1;   // Valid: tier1_ran.
  bool tier1_ran = false;
};

/// The cheap tiers of the ladder. Stateless and const: safe to share
/// across batch workers. Tier 2 itself is NoiseAnalyzer — a decision with
/// pruned == false means "run it".
class FidelityLadder {
 public:
  explicit FidelityLadder(FidelityLadderOptions opts = {});

  /// Runs Tier 0, then Tier 1 when Tier 0 did not prune, on one moment
  /// pass of the net. Malformed nets come back as kInvalidArgument.
  StatusOr<LadderDecision> evaluate(const CoupledNet& net) const;

  const FidelityLadderOptions& options() const { return opts_; }

 private:
  FidelityLadderOptions opts_;
};

}  // namespace dn
