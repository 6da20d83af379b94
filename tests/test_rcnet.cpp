// RC net data-model tests (rcnet/net.*).
#include "rcnet/net.hpp"

#include <gtest/gtest.h>

#include "sim/linear_sim.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

TEST(RcTree, LineTopology) {
  const RcTree t = make_line(4, 1 * kOhm, 40 * fF);
  EXPECT_EQ(t.num_nodes, 5);
  EXPECT_EQ(t.sink, 4);
  EXPECT_EQ(t.res.size(), 4u);
  EXPECT_NEAR(t.total_cap(), 40 * fF, 1e-20);
  EXPECT_NO_THROW(t.validate());
}

TEST(RcTree, TreeTopology) {
  const RcTree t = make_tree(3, 200.0, 5 * fF);
  EXPECT_EQ(t.num_nodes, 15);
  EXPECT_EQ(t.res.size(), 14u);
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.sink, 14);
}

TEST(RcTree, ValidateCatchesBadTopologies) {
  RcTree t = make_line(2, 100.0, 10 * fF);
  t.sink = 99;
  EXPECT_THROW(t.validate(), std::invalid_argument);

  RcTree disconnected;
  disconnected.num_nodes = 3;
  disconnected.res.push_back({0, 1, 100.0});
  // Node 2 unreachable.
  EXPECT_THROW(disconnected.validate(), std::invalid_argument);

  RcTree badr = make_line(2, 100.0, 10 * fF);
  badr.res[0].r = -5.0;
  EXPECT_THROW(badr.validate(), std::invalid_argument);
}

TEST(RcTree, InstantiateIsSimulatable) {
  const RcTree t = make_line(6, 600.0, 60 * fF);
  Circuit ckt;
  const auto map = t.instantiate(ckt, "n");
  ASSERT_EQ(map.size(), 7u);
  ckt.add_vsource(map[0], kGround, Pwl::ramp(0.0, 50 * ps, 0.0, 1.0));
  LinearSim sim(ckt);
  const auto res = sim.try_run({0.0, 2 * ns, 1 * ps}).value();
  EXPECT_NEAR(res.waveform(map[6]).at(2 * ns), 1.0, 1e-3);
}

TEST(RcTree, InstantiateTwiceWithDistinctPrefixes) {
  const RcTree t = make_line(2, 100.0, 10 * fF);
  Circuit ckt;
  const auto m1 = t.instantiate(ckt, "a");
  const auto m2 = t.instantiate(ckt, "b");
  EXPECT_NE(m1[0], m2[0]);
  EXPECT_EQ(ckt.num_nodes(), 1 + 3 + 3);
}

TEST(CoupledNet, ValidationAndTotals) {
  CoupledNet cn;
  cn.victim.net = make_line(4, 1 * kOhm, 40 * fF);
  AggressorDesc agg;
  agg.net = make_line(4, 800.0, 30 * fF);
  cn.aggressors.push_back(agg);
  cn.couplings.push_back({0, 2, 2, 25 * fF});
  EXPECT_NO_THROW(cn.validate());
  EXPECT_NEAR(cn.total_coupling_cap(), 25 * fF, 1e-21);

  CoupledNet bad = cn;
  bad.couplings[0].aggressor = 7;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = cn;
  bad.couplings[0].victim_node = 77;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = cn;
  bad.couplings[0].c = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(DriverInputRamp, PolarityForInvertingDriver) {
  GateParams inv;
  inv.type = GateType::Inverter;
  // Rising output needs a falling input through an inverter.
  const Pwl fall = driver_input_ramp(inv, 100 * ps, true, 0.0);
  EXPECT_GT(fall.values().front(), fall.values().back());
  const Pwl rise = driver_input_ramp(inv, 100 * ps, false, 0.0);
  EXPECT_LT(rise.values().front(), rise.values().back());

  GateParams buf;
  buf.type = GateType::Buffer;
  const Pwl same = driver_input_ramp(buf, 100 * ps, true, 0.0);
  EXPECT_LT(same.values().front(), same.values().back());
}

TEST(MakeLine, RejectsBadArguments) {
  EXPECT_THROW(make_line(0, 1.0, 1 * fF), std::invalid_argument);
  EXPECT_THROW(make_tree(0, 1.0, 1 * fF), std::invalid_argument);
}

}  // namespace
}  // namespace dn
