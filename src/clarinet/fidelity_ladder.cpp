#include "clarinet/fidelity_ladder.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

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

double drive_resistance_proxy(const GateParams& g, bool rising_output) {
  // Rising output is pulled up by the PMOS; the opposing noise is absorbed
  // by that same device mid-transition.
  const MosfetParams& p = rising_output ? g.pmos_proto : g.nmos_proto;
  const double w = rising_output ? g.wp() : g.wn();
  const double vov = g.vdd - p.vt;
  const double idsat = 0.5 * p.kp * (w / p.l) * vov * vov;
  return idsat > 0 ? g.vdd / idsat : 1e9;
}

namespace {

/// Safety factor on the Tier-0 closed-form bound. The bound's structure
/// (charge-sharing ceiling times a generous interaction interval) is
/// conservative on its own for RC-dominated nets; the factor covers
/// receiver nonlinearity amplifying an input-referred displacement.
/// Calibrated against the randomized suites of
/// tests/test_fidelity_ladder.cpp — loosen it there, not here.
constexpr double kTier0Safety = 2.0;

}  // namespace

StatusOr<NetMoments> try_net_moments(const CoupledNet& net) {
  try {
    net.validate();
  } catch (const std::exception& e) {
    return Status::InvalidArgument(e.what());
  }
  static obs::Counter& c_nets = obs::metrics().counter("screen.nets");
  static obs::Histogram& h_seconds =
      obs::metrics().histogram("stage.screen.seconds");
  obs::StageScope stage("screen.moments", "screen", h_seconds);
  c_nets.add();

  NetMoments m;
  m.vdd = net.victim.driver.vdd;
  m.cc = net.total_coupling_cap();
  m.cv = net.victim.net.total_cap() + net.victim.receiver.input_cap();
  m.r_drv = drive_resistance_proxy(net.victim.driver, net.victim.output_rising);
  // Wire Elmore to the sink adds to the holding time constant seen by
  // coupling injected along the run.
  m.wire_tau = elmore_delay(net.victim.net, net.victim.net.sink);
  m.victim_tau = m.r_drv * (m.cv + m.cc) + m.wire_tau;
  m.input_slew = net.victim.input_slew;
  for (const auto& agg : net.aggressors) {
    const double r_agg = drive_resistance_proxy(agg.driver, agg.output_rising);
    const double tau_agg =
        r_agg * (agg.net.total_cap() +
                 m.cc / static_cast<double>(net.aggressors.size()));
    const double t_edge = agg.input_slew + 2.0 * tau_agg;
    m.t_edge_min = std::min(m.t_edge_min, t_edge);
    m.t_edge_max = std::max(m.t_edge_max, t_edge);
  }
  return m;
}

Tier0Bound tier0_bound(const NetMoments& m) {
  Tier0Bound b;
  // Charge-sharing ceiling: even if every aggressor switched as a step
  // and the victim driver absorbed nothing, the capacitive divider caps
  // the injected peak at Vdd * Cc / (Cc + Cv). No attenuation terms —
  // this must stay above ANY achievable composite peak.
  b.vn_bound = m.cc + m.cv > 0 ? m.vdd * m.cc / (m.cc + m.cv) : 0.0;

  // Interaction interval: the noise pulse can displace the receiver-output
  // crossing by at most the span over which pulse and transition overlap.
  // Bound the victim transition generously (input slew + 2 driver taus +
  // 4 wire delays) and the pulse width by the SLOWEST aggressor edge plus
  // the victim settling tail.
  const double trans_bound =
      m.input_slew + 2.0 * m.r_drv * (m.cv + m.cc) + 4.0 * m.wire_tau;
  const double width_bound = m.t_edge_max + 4.0 * m.victim_tau;

  b.dn_bound =
      kTier0Safety * (b.vn_bound / m.vdd) * (trans_bound + width_bound);
  return b;
}

ScreeningEstimate tier1_estimate(const NetMoments& m) {
  ScreeningEstimate est;
  // Charge-sharing peak, attenuated when the fastest aggressor edge is
  // slow relative to the victim holding time constant.
  const double divider = m.cc / (m.cc + m.cv);
  const double speed = m.victim_tau / (m.victim_tau + 0.5 * m.t_edge_min);
  est.vn_est = m.vdd * divider * speed;

  // Delay-noise proxy: the noise displaces the crossing by its height
  // times the local transition slope inverse; transition time proxy =
  // input slew + drive tau + wire delay.
  const double trans =
      m.input_slew + m.r_drv * (m.cv + m.cc) + 2.0 * m.wire_tau;
  est.dn_est = est.vn_est / m.vdd * trans;
  return est;
}

StatusOr<ScreeningEstimate> try_screen_net(const CoupledNet& net) {
  StatusOr<NetMoments> m = try_net_moments(net);
  if (!m.ok()) return m.status();
  return tier1_estimate(*m);
}

std::vector<std::size_t> rank_by_severity(
    const std::vector<CoupledNet>& nets) {
  // Malformed nets score -inf so they sort after every well-formed net
  // instead of aborting the whole ranking.
  std::vector<double> score(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const StatusOr<ScreeningEstimate> est = try_screen_net(nets[i]);
    score[i] = est.ok() ? est->dn_est
                        : -std::numeric_limits<double>::infinity();
  }
  std::vector<std::size_t> order(nets.size());
  std::iota(order.begin(), order.end(), 0u);
  // Ties (identical nets, or several malformed) break on the lower index
  // so the ranking is reproducible at any --jobs.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (score[a] != score[b]) return score[a] > score[b];
    return a < b;
  });
  return order;
}

FidelityLadder::FidelityLadder(FidelityLadderOptions opts) : opts_(opts) {}

StatusOr<LadderDecision> FidelityLadder::evaluate(const CoupledNet& net) const {
  static obs::Counter& c_t0_pruned =
      obs::metrics().counter("ladder.tier0_pruned");
  static obs::Counter& c_t1_evals =
      obs::metrics().counter("ladder.tier1_evals");
  static obs::Counter& c_t1_pruned =
      obs::metrics().counter("ladder.tier1_pruned");

  StatusOr<NetMoments> m = try_net_moments(net);
  if (!m.ok()) return m.status();

  LadderDecision d;
  d.dn_bound = tier0_bound(*m).dn_bound;
  const double thr = opts_.dn_threshold;
  if (thr >= 0.0 && d.dn_bound < thr) {
    d.pruned = true;
    d.decided_by = FidelityTier::kTier0;
    c_t0_pruned.add();
    return d;
  }

  c_t1_evals.add();
  // The margin-scaled estimate is itself a (calibrated) upper bound;
  // the recorded bound keeps whichever is tighter.
  const double t1_bound = opts_.tier1_margin * tier1_estimate(*m).dn_est;
  d.dn_bound = std::min(d.dn_bound, t1_bound);
  if (thr >= 0.0 && t1_bound < thr) {
    d.pruned = true;
    d.decided_by = FidelityTier::kTier1;
    c_t1_pruned.add();
  }
  return d;
}

}  // namespace dn
