#include "clarinet/fidelity_ladder.hpp"

#include <algorithm>
#include <cmath>

#include "rcnet/elmore.hpp"
#include "util/trace.hpp"

namespace dn {

const char* fidelity_tier_name(FidelityTier t) {
  switch (t) {
    case FidelityTier::kTier0: return "tier0";
    case FidelityTier::kTier1: return "tier1";
    case FidelityTier::kTier2: return "tier2";
  }
  return "?";
}

namespace {

/// Safety factor on the Tier-0 closed-form bound. The bound's structure
/// (charge-sharing ceiling times a generous interaction interval) is
/// conservative on its own for RC-dominated nets; the factor covers
/// receiver nonlinearity amplifying an input-referred displacement.
/// Calibrated against the randomized suites of
/// tests/test_fidelity_ladder.cpp — loosen it there, not here.
constexpr double kTier0Safety = 2.0;

Tier0Bound bound_validated(const CoupledNet& net) {
  static obs::Counter& c_nets = obs::metrics().counter("ladder.tier0_evals");
  static obs::Histogram& h_seconds =
      obs::metrics().histogram("stage.tier0.seconds");
  obs::StageScope stage("ladder.tier0", "screen", h_seconds);
  c_nets.add();

  Tier0Bound b;
  const double vdd = net.victim.driver.vdd;
  const double cc = net.total_coupling_cap();
  const double cv =
      net.victim.net.total_cap() + net.victim.receiver.input_cap();
  const double r_drv =
      drive_resistance_proxy(net.victim.driver, net.victim.output_rising);
  const double wire_tau = elmore_delay(net.victim.net, net.victim.net.sink);
  b.victim_tau = r_drv * (cv + cc) + wire_tau;

  // Charge-sharing ceiling: even if every aggressor switched as a step
  // and the victim driver absorbed nothing, the capacitive divider caps
  // the injected peak at Vdd * Cc / (Cc + Cv). No attenuation terms —
  // this must stay above ANY achievable composite peak.
  b.vn_bound = cc + cv > 0 ? vdd * cc / (cc + cv) : 0.0;

  // Interaction interval: the noise pulse can displace the receiver-output
  // crossing by at most the span over which pulse and transition overlap.
  // Bound the victim transition generously (input slew + 2 driver taus +
  // 4 wire delays) and the pulse width by the SLOWEST aggressor edge plus
  // the victim settling tail.
  double t_edge_max = 0.0;
  for (const auto& agg : net.aggressors) {
    const double r_agg = drive_resistance_proxy(agg.driver, agg.output_rising);
    const double tau_agg =
        r_agg * (agg.net.total_cap() +
                 cc / static_cast<double>(net.aggressors.size()));
    t_edge_max = std::max(t_edge_max, agg.input_slew + 2.0 * tau_agg);
  }
  const double trans_bound =
      net.victim.input_slew + 2.0 * r_drv * (cv + cc) + 4.0 * wire_tau;
  const double width_bound = t_edge_max + 4.0 * b.victim_tau;

  b.dn_bound =
      kTier0Safety * (b.vn_bound / vdd) * (trans_bound + width_bound);
  return b;
}

}  // namespace

StatusOr<Tier0Bound> try_tier0_bound(const CoupledNet& net) {
  try {
    net.validate();
  } catch (const std::exception& e) {
    return Status::InvalidArgument(e.what());
  }
  return bound_validated(net);
}

FidelityLadder::FidelityLadder(FidelityLadderOptions opts) : opts_(opts) {}

StatusOr<LadderDecision> FidelityLadder::evaluate(const CoupledNet& net) const {
  static obs::Counter& c_t0_pruned =
      obs::metrics().counter("ladder.tier0_pruned");
  static obs::Counter& c_t1_evals =
      obs::metrics().counter("ladder.tier1_evals");
  static obs::Counter& c_t1_pruned =
      obs::metrics().counter("ladder.tier1_pruned");

  LadderDecision d;
  StatusOr<Tier0Bound> b = try_tier0_bound(net);
  if (!b.ok()) return b.status();
  d.tier0 = *b;
  d.tier0_ran = true;
  d.dn_bound = b->dn_bound;

  const double thr = opts_.dn_threshold;
  if (thr >= 0.0 && d.dn_bound < thr) {
    d.pruned = true;
    d.decided_by = FidelityTier::kTier0;
    c_t0_pruned.add();
    return d;
  }
  if (opts_.max_tier <= 0) {
    // Capped ladder: the survivor is deferred with its Tier-0 bound.
    d.decided_by = FidelityTier::kTier0;
    return d;
  }

  StatusOr<ScreeningEstimate> est = try_screen_net(net);
  if (!est.ok()) return est.status();
  c_t1_evals.add();
  d.tier1 = *est;
  d.tier1_ran = true;
  // The margin-scaled estimate is itself a (calibrated) upper bound;
  // the recorded bound keeps whichever is tighter.
  const double t1_bound = opts_.tier1_margin * est->dn_est;
  d.dn_bound = std::min(d.dn_bound, t1_bound);
  if (thr >= 0.0 && t1_bound < thr) {
    d.pruned = true;
    d.decided_by = FidelityTier::kTier1;
    c_t1_pruned.add();
    return d;
  }
  d.decided_by =
      opts_.max_tier <= 1 ? FidelityTier::kTier1 : FidelityTier::kTier2;
  return d;
}

}  // namespace dn
