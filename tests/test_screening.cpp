// Tests for the moment-level screening estimate (the fidelity ladder's Tier 1
// in clarinet/fidelity_ladder.*) and rank_by_severity.
#include <gtest/gtest.h>

#include <numeric>

#include "clarinet/fidelity_ladder.hpp"
#include "core/delay_noise.hpp"
#include "rcnet/random_nets.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

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
