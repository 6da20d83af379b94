// Tests for the estimator / table additions: Elmore moments (validated
// against the transient simulator), the bus topology builder,
// and the pre-characterized Thevenin table.
#include <gtest/gtest.h>

#include "ceff/thevenin_table.hpp"
#include "rcnet/elmore.hpp"
#include "sim/linear_sim.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

TEST(Elmore, SingleRcIsExact) {
  RcTree t;
  t.num_nodes = 2;
  t.res.push_back({0, 1, 1000.0});
  t.caps.push_back({1, 100 * fF});
  t.sink = 1;
  EXPECT_NEAR(elmore_delay(t, 1), 1000.0 * 100 * fF, 1e-18);
}

TEST(Elmore, LineMatchesClosedForm) {
  // Uniform line: Elmore to the end = sum_k k*r*c.
  const int n = 8;
  const RcTree t = make_line(n, 800.0, 80 * fF);
  const double r = 800.0 / n, c = 80 * fF / n;
  double expect = 0.0;
  for (int k = 1; k <= n; ++k) expect += k * r * c;
  EXPECT_NEAR(elmore_delay(t, n), expect, 1e-15);
  // Monotone along the line.
  for (int k = 1; k < n; ++k)
    EXPECT_LT(elmore_delay(t, k), elmore_delay(t, k + 1));
}

TEST(Elmore, ExtraCapAddsDelay) {
  const RcTree t = make_line(5, 500.0, 50 * fF);
  std::vector<double> extra(6, 0.0);
  extra[5] = 30 * fF;
  EXPECT_GT(elmore_delay(t, 5, extra), elmore_delay(t, 5) + 10 * ps);
}

TEST(Elmore, BoundsSimulated50PercentDelay) {
  // Step-driven line: Elmore is a pessimistic bound on the simulated 50%
  // delay, and stays within a factor of two of it.
  const RcTree t = make_line(10, 2 * kOhm, 200 * fF);
  Circuit ckt;
  const auto map = t.instantiate(ckt, "n");
  ckt.add_vsource(map[0], kGround, Pwl::ramp(0.0, 1 * ps, 0.0, 1.0));
  LinearSim sim(ckt);
  const auto res = sim.try_run({0.0, 5 * ns, 1 * ps}).value();
  for (int node : {5, 10}) {
    const double t50 =
        *res.waveform(map[static_cast<std::size_t>(node)]).crossing(0.5, true);
    const double el = elmore_delay(t, node);
    EXPECT_LT(t50, el) << "node " << node;  // Elmore over-estimates.
    EXPECT_GT(t50, 0.5 * el) << "node " << node;
  }
}

TEST(Elmore, RejectsLoopsAndBadSizes) {
  RcTree loop = make_line(2, 200.0, 20 * fF);
  loop.res.push_back({0, 2, 100.0});  // Creates a resistor loop.
  EXPECT_THROW(tree_moments(loop), std::invalid_argument);
  const RcTree t = make_line(2, 200.0, 20 * fF);
  EXPECT_THROW(tree_moments(t, std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(MakeBus, TopologyAndCoupling) {
  const CoupledNet bus = make_bus(5, 6, 1 * kOhm, 60 * fF, 30 * fF);
  EXPECT_EQ(bus.aggressors.size(), 4u);  // 5 lanes, middle is the victim.
  // Only the two adjacent lanes couple.
  EXPECT_NEAR(bus.total_coupling_cap(), 2 * 30 * fF, 1e-19);
  EXPECT_NO_THROW(bus.validate());
  EXPECT_THROW(make_bus(4, 6, 1 * kOhm, 60 * fF, 30 * fF),
               std::invalid_argument);
  EXPECT_THROW(make_bus(1, 6, 1 * kOhm, 60 * fF, 30 * fF),
               std::invalid_argument);
}

TEST(TheveninTable, GridPointsMatchDirectFit) {
  GateParams g;
  g.size = 2.0;
  const std::vector<double> slews{100 * ps, 300 * ps};
  const std::vector<double> loads{20 * fF, 80 * fF};
  const TheveninTable tbl =
      TheveninTable::characterize(g, true, slews, loads);
  // Lookup exactly at a grid point reproduces the stored fit.
  const TheveninModel m = tbl.lookup(100 * ps, 20 * fF, 100 * ps);
  const Pwl vin = driver_input_ramp(g, 100 * ps, true, 100 * ps);
  const TheveninModel direct = fit_thevenin(g, vin, 20 * fF).model;
  EXPECT_NEAR(m.rth, direct.rth, 1e-6 * direct.rth);
  EXPECT_NEAR(m.tr, direct.tr, 1e-6 * direct.tr);
  EXPECT_NEAR(m.t0, direct.t0, 1e-15);
}

TEST(TheveninTable, InterpolationIsBetweenCorners) {
  GateParams g;
  const TheveninTable tbl = TheveninTable::characterize(
      g, false, {100 * ps, 300 * ps}, {20 * fF, 80 * fF});
  const double r00 = tbl.at(0, 0).rth;
  const double r11 = tbl.at(1, 1).rth;
  const TheveninModel mid = tbl.lookup(200 * ps, 50 * fF, 0.0);
  EXPECT_GE(mid.rth, std::min(std::min(r00, r11),
                              std::min(tbl.at(0, 1).rth, tbl.at(1, 0).rth)));
  EXPECT_LE(mid.rth, std::max(std::max(r00, r11),
                              std::max(tbl.at(0, 1).rth, tbl.at(1, 0).rth)));
  EXPECT_FALSE(mid.rising());
}

TEST(TheveninTable, QueriesClampToGrid) {
  GateParams g;
  const TheveninTable tbl =
      TheveninTable::characterize(g, true, {100 * ps, 300 * ps},
                                  {20 * fF, 80 * fF});
  const TheveninModel lo = tbl.lookup(1 * ps, 1 * fF, 0.0);
  EXPECT_NEAR(lo.rth, tbl.at(0, 0).rth, 1e-9);
  const TheveninModel hi = tbl.lookup(1 * ns, 1 * pF, 0.0);
  EXPECT_NEAR(hi.rth, tbl.at(1, 1).rth, 1e-9);
}

TEST(TheveninTable, LookupReanchorsTiming) {
  GateParams g;
  const TheveninTable tbl =
      TheveninTable::characterize(g, true, {100 * ps, 300 * ps},
                                  {20 * fF, 80 * fF});
  const TheveninModel a = tbl.lookup(100 * ps, 20 * fF, 0.0);
  const TheveninModel b = tbl.lookup(100 * ps, 20 * fF, 1 * ns);
  EXPECT_NEAR(b.t0 - a.t0, 1 * ns, 1e-15);
}

TEST(TheveninTable, BadAxesThrow) {
  GateParams g;
  EXPECT_THROW(TheveninTable::characterize(g, true, {}, {20 * fF}),
               std::invalid_argument);
  EXPECT_THROW(
      TheveninTable::characterize(g, true, {2e-10, 1e-10}, {20 * fF}),
      std::invalid_argument);
}

}  // namespace
}  // namespace dn
