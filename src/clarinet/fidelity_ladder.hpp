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
//   Tier 1  the moment-level estimate of clarinet/screening.hpp scaled by
//           a conservative margin. Sharper than Tier 0, still sim-free.
//   Tier 2  the full Rtr + nonlinear verification flow, run only for
//           survivors.
//
// Every decision records the tier that made it and the bound that
// justified pruning, so batch reports and the resident server can carry
// fidelity provenance through incremental re-analysis (a dirty net
// re-enters the ladder at Tier 0).
#pragma once

#include "clarinet/screening.hpp"
#include "rcnet/net.hpp"
#include "util/status.hpp"

namespace dn {

enum class FidelityTier {
  kTier0 = 0,  // Closed-form moment bound.
  kTier1 = 1,  // Moment estimate with conservative margin.
  kTier2 = 2,  // Full Rtr + nonlinear verification.
};

const char* fidelity_tier_name(FidelityTier t);

/// Conservative closed-form bounds for one net, from moments only.
struct Tier0Bound {
  double vn_bound = 0.0;   // >= any achievable composite noise peak [V].
  double dn_bound = 0.0;   // >= the full-flow delay noise [s].
  double victim_tau = 0.0; // Holding time constant proxy [s].
};

/// Computes the Tier-0 bound; malformed nets come back as
/// kInvalidArgument (the ladder forwards them to Tier 2, whose analyzer
/// owns error reporting).
StatusOr<Tier0Bound> try_tier0_bound(const CoupledNet& net);

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
  /// Highest tier allowed to run: 0 or 1 stop at the cheap tiers
  /// (survivors are reported as deferred, with their tightest bound);
  /// 2 = full ladder.
  int max_tier = 2;
};

/// One net's path through the ladder.
struct LadderDecision {
  /// The tier that produced the verdict: a pruning tier, the last cheap
  /// tier when the ladder is capped (deferred), or kTier2 = "go analyze".
  FidelityTier decided_by = FidelityTier::kTier2;
  bool pruned = false;
  /// Tightest delay-noise upper bound established by the cheap tiers [s]
  /// — the figure that justifies a prune (and bounds any missed
  /// violation). Valid whenever tier 0 ran.
  double dn_bound = 0.0;
  Tier0Bound tier0;          // Valid: tier0_ran.
  ScreeningEstimate tier1;   // Valid: tier1_ran.
  bool tier0_ran = false;
  bool tier1_ran = false;
};

/// The cheap tiers of the ladder. Stateless and const: safe to share
/// across batch workers. Tier 2 itself is NoiseAnalyzer — a decision with
/// pruned == false and decided_by == kTier2 means "run it".
class FidelityLadder {
 public:
  explicit FidelityLadder(FidelityLadderOptions opts = {});

  /// Runs Tier 0 (and Tier 1 when allowed and needed) on one net.
  /// Malformed nets come back as kInvalidArgument.
  StatusOr<LadderDecision> evaluate(const CoupledNet& net) const;

  const FidelityLadderOptions& options() const { return opts_; }

 private:
  FidelityLadderOptions opts_;
};

}  // namespace dn
