// Tests for TICER node elimination (mor/ticer.*) and the screening
// estimates (clarinet/screening.*).
#include <gtest/gtest.h>

#include <numeric>

#include "clarinet/screening.hpp"
#include "core/delay_noise.hpp"
#include "mor/ticer.hpp"
#include "rcnet/elmore.hpp"
#include "rcnet/random_nets.hpp"
#include "sim/linear_sim.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

TEST(Ticer, EliminatesQuickSeriesNodes) {
  // 20-segment line with tiny per-node taus: everything internal except
  // the protected sink should collapse.
  const RcTree line = make_line(20, 400.0, 20 * fF);  // tau/node ~ 20fs.
  TicerOptions opts;
  opts.tau_max = 10e-12;
  const TicerResult r = ticer_reduce(line, {}, opts);
  EXPECT_GT(r.eliminated, 10);
  EXPECT_LT(r.reduced.num_nodes, line.num_nodes);
  // Total capacitance is preserved exactly.
  EXPECT_NEAR(r.reduced.total_cap(), line.total_cap(), 1e-20);
  // Total series resistance root->sink is preserved exactly.
  double rsum = 0.0, rsum0 = 0.0;
  for (const auto& e : r.reduced.res) rsum += e.r;
  for (const auto& e : line.res) rsum0 += e.r;
  EXPECT_NEAR(rsum, rsum0, 1e-9);
}

TEST(Ticer, PreservesElmoreDelayClosely) {
  const RcTree line = make_line(16, 1200.0, 90 * fF);
  TicerOptions opts;
  opts.tau_max = 5e-12;
  const TicerResult r = ticer_reduce(line, {}, opts);
  ASSERT_GT(r.eliminated, 0);
  const double e0 = elmore_delay(line, line.sink);
  const double e1 = elmore_delay(r.reduced, r.reduced.sink);
  EXPECT_NEAR(e1, e0, 0.05 * e0);
}

TEST(Ticer, PreservesTransientWaveform) {
  // Realistic extraction artifact: substantial wire segments separated by
  // tiny via-stub segments. TICER's job is to eliminate only the quick
  // stub nodes; the distributed character of the real segments survives.
  RcTree line;
  line.num_nodes = 1;
  int prev = 0;
  for (int seg = 0; seg < 8; ++seg) {
    // Wire segment.
    const int wire = line.num_nodes++;
    line.res.push_back({prev, wire, 250.0});
    line.caps.push_back({wire, 15 * fF});
    // Via stub: tiny R, tiny C -> ~fs time constant.
    const int via = line.num_nodes++;
    line.res.push_back({wire, via, 50.0});
    line.caps.push_back({via, 0.08 * fF});
    prev = via;
  }
  line.sink = prev;
  line.validate();

  TicerOptions opts;
  opts.tau_max = 0.5e-12;  // Kills the via nodes, keeps the wire nodes.
  const TicerResult r = ticer_reduce(line, {}, opts);
  ASSERT_GT(r.eliminated, 5);
  EXPECT_LT(r.eliminated, 10);  // The wire nodes must survive.

  auto simulate = [](const RcTree& t) {
    Circuit ckt;
    const auto map = t.instantiate(ckt, "n");
    ckt.add_vsource(map[0], kGround, Pwl::ramp(50 * ps, 100 * ps, 0.0, 1.8));
    LinearSim sim(ckt);
    return sim.try_run({0.0, 3 * ns, 2 * ps})
        .value()
        .waveform(map[static_cast<std::size_t>(t.sink)]);
  };
  const Pwl full = simulate(line);
  const Pwl red = simulate(r.reduced);
  for (double t = 0; t <= 3 * ns; t += 50 * ps)
    EXPECT_NEAR(red.at(t), full.at(t), 0.03) << "t=" << t;
  // 50% delay within a couple of ps.
  EXPECT_NEAR(*red.crossing(0.9, true), *full.crossing(0.9, true), 3 * ps);
}

TEST(Ticer, ProtectsKeepNodesAndEndpoints) {
  const RcTree line = make_line(10, 500.0, 50 * fF);
  TicerOptions opts;
  opts.tau_max = 1e-9;  // Would otherwise eliminate everything.
  const TicerResult r = ticer_reduce(line, {3, 7}, opts);
  EXPECT_GE(r.reduced.num_nodes, 4);  // root, sink, 3, 7 survive.
  EXPECT_NE(r.node_map[3], -1);
  EXPECT_NE(r.node_map[7], -1);
  EXPECT_EQ(r.node_map[0], 0);
  EXPECT_NE(r.node_map[10], -1);
  EXPECT_THROW(ticer_reduce(line, {99}), std::invalid_argument);
}

TEST(Ticer, HighTauLimitLeavesTreeUntouched) {
  const RcTree line = make_line(6, 2 * kOhm, 100 * fF);
  TicerOptions opts;
  opts.tau_max = 1e-18;
  const TicerResult r = ticer_reduce(line, {}, opts);
  EXPECT_EQ(r.eliminated, 0);
  EXPECT_EQ(r.reduced.num_nodes, line.num_nodes);
}

ScreeningEstimate screen_ok(const CoupledNet& net) {
  const StatusOr<ScreeningEstimate> est = try_screen_net(net);
  EXPECT_TRUE(est.ok()) << est.status().to_string();
  return est.ok() ? *est : ScreeningEstimate{};
}

TEST(Screening, MoreCouplingScoresHigher) {
  CoupledNet small = example_coupled_net(1);
  CoupledNet big = example_coupled_net(1);
  for (auto& cc : big.couplings) cc.c *= 2.0;
  EXPECT_GT(screen_ok(big).dn_est, screen_ok(small).dn_est);
  EXPECT_GT(screen_ok(big).vn_est, screen_ok(small).vn_est);
}

TEST(Screening, WeakerVictimScoresHigher) {
  CoupledNet weak = example_coupled_net(1);
  CoupledNet strong = example_coupled_net(1);
  strong.victim.driver.size = 8.0;
  EXPECT_GT(screen_ok(weak).dn_est, screen_ok(strong).dn_est);
}

TEST(Screening, RankCorrelatesWithFullAnalysis) {
  // The estimate must broadly agree with the expensive analysis on which
  // nets matter: check rank correlation over a seeded population.
  Rng rng(4242);
  std::vector<CoupledNet> nets;
  for (int i = 0; i < 10; ++i) nets.push_back(random_coupled_net(rng));

  std::vector<double> actual;
  for (const auto& net : nets) {
    SuperpositionEngine eng(net);
    DelayNoiseOptions opts;
    opts.method = AlignmentMethod::Exhaustive;
    opts.search.coarse_points = 17;
    opts.search.fine_points = 9;
    opts.search.dt = 2 * ps;
    actual.push_back(analyze_delay_noise(eng, opts).delay_noise());
  }
  std::vector<double> est;
  for (const auto& net : nets) est.push_back(screen_ok(net).dn_est);

  // Spearman rank correlation.
  auto ranks = [](const std::vector<double>& v) {
    std::vector<std::size_t> idx(v.size());
    std::iota(idx.begin(), idx.end(), 0u);
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    std::vector<double> r(v.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
      r[idx[i]] = static_cast<double>(i);
    return r;
  };
  const auto ra = ranks(actual);
  const auto re = ranks(est);
  double d2 = 0.0;
  for (std::size_t i = 0; i < ra.size(); ++i)
    d2 += (ra[i] - re[i]) * (ra[i] - re[i]);
  const double n = static_cast<double>(ra.size());
  const double rho = 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
  EXPECT_GT(rho, 0.5) << "Spearman rho = " << rho;
}

TEST(Screening, RankBySeverityOrdersDescending) {
  std::vector<CoupledNet> nets;
  for (double scale : {0.3, 1.0, 2.0}) {
    CoupledNet net = example_coupled_net(1);
    for (auto& cc : net.couplings) cc.c *= scale;
    nets.push_back(net);
  }
  const auto order = rank_by_severity(nets);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2u);  // Most coupling first.
  EXPECT_EQ(order[2], 0u);
}

TEST(Screening, RankBySeverityBreaksTiesByIndex) {
  // Four identical nets tie exactly on dn_est: order must be the input
  // order, reproducibly, so ladder tier ordering is stable at any --jobs.
  std::vector<CoupledNet> nets(4, example_coupled_net(1));
  const auto order = rank_by_severity(nets);
  ASSERT_EQ(order.size(), 4u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Screening, RankBySeverityMalformedNetsSortLast) {
  CoupledNet weak = example_coupled_net(1);
  CoupledNet strong = example_coupled_net(1);
  for (auto& cc : strong.couplings) cc.c *= 2.0;
  CoupledNet bad1 = example_coupled_net(1);
  bad1.couplings[0].aggressor = 7;  // Out-of-range: validate() throws.
  CoupledNet bad2 = example_coupled_net(1);
  bad2.couplings[0].victim_node = -1;
  ASSERT_FALSE(try_screen_net(bad1).ok());
  ASSERT_FALSE(try_screen_net(bad2).ok());

  const std::vector<CoupledNet> nets = {bad1, weak, strong, bad2};
  const auto order = rank_by_severity(nets);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 2u);  // strong
  EXPECT_EQ(order[1], 1u);  // weak
  EXPECT_EQ(order[2], 0u);  // malformed, by index
  EXPECT_EQ(order[3], 3u);
}

}  // namespace
}  // namespace dn
