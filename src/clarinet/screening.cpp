#include "clarinet/screening.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "rcnet/elmore.hpp"
#include "util/trace.hpp"

namespace dn {

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

/// Core estimator; assumes `net` already validated.
ScreeningEstimate estimate_validated(const CoupledNet& net) {
  static obs::Counter& c_nets = obs::metrics().counter("screen.nets");
  static obs::Histogram& h_seconds =
      obs::metrics().histogram("stage.screen.seconds");
  obs::StageScope stage("screen.net", "screen", h_seconds);
  c_nets.add();
  ScreeningEstimate est;

  const double vdd = net.victim.driver.vdd;
  const double cc = net.total_coupling_cap();
  const double cv = net.victim.net.total_cap() + net.victim.receiver.input_cap();
  const double r_drv = drive_resistance_proxy(net.victim.driver,
                                              net.victim.output_rising);
  // Wire Elmore to the sink adds to the holding time constant seen by
  // coupling injected along the run.
  const double wire_tau = elmore_delay(net.victim.net, net.victim.net.sink);
  est.victim_tau = r_drv * (cv + cc) + wire_tau;

  // Fastest aggressor edge dominates the composite peak.
  double t_edge = 1e9;
  for (const auto& agg : net.aggressors) {
    const double r_agg = drive_resistance_proxy(agg.driver, agg.output_rising);
    const double tau_agg =
        r_agg * (agg.net.total_cap() + cc / net.aggressors.size());
    t_edge = std::min(t_edge, agg.input_slew + 2.0 * tau_agg);
  }

  // Charge-sharing peak, attenuated when the aggressor edge is slow
  // relative to the victim holding time constant.
  const double divider = cc / (cc + cv);
  const double speed = est.victim_tau / (est.victim_tau + 0.5 * t_edge);
  est.vn_est = vdd * divider * speed;

  // Delay-noise proxy: the noise displaces the crossing by its height
  // times the local transition slope inverse; transition time proxy =
  // input slew + drive tau + wire delay.
  const double trans =
      net.victim.input_slew + r_drv * (cv + cc) + 2.0 * wire_tau;
  est.dn_est = est.vn_est / vdd * trans;
  return est;
}

}  // namespace

StatusOr<ScreeningEstimate> try_screen_net(const CoupledNet& net) {
  try {
    net.validate();
  } catch (const std::exception& e) {
    return Status::InvalidArgument(e.what());
  }
  return estimate_validated(net);
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
  // so the ladder's tier ordering is reproducible at any --jobs.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (score[a] != score[b]) return score[a] > score[b];
    return a < b;
  });
  return order;
}

}  // namespace dn
