// Unit tests for the netlist container and MNA assembly (circuit/*).
#include "circuit/circuit.hpp"
#include "circuit/mna.hpp"

#include <gtest/gtest.h>

#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

TEST(Circuit, NodeNamingAndAliases) {
  Circuit c;
  EXPECT_EQ(c.node("gnd"), kGround);
  EXPECT_EQ(c.node("GND"), kGround);
  EXPECT_EQ(c.node("0"), kGround);
  const NodeId a = c.node("a");
  EXPECT_EQ(c.node("a"), a);
  EXPECT_NE(c.node("b"), a);
}

TEST(Circuit, AnonymousNodesAreFresh) {
  Circuit c;
  const NodeId a = c.add_node();
  const NodeId b = c.add_node();
  EXPECT_NE(a, b);
  EXPECT_EQ(c.num_nodes(), 3);  // ground + 2.
}

TEST(Circuit, ElementValidation) {
  Circuit c;
  const NodeId a = c.node("a");
  EXPECT_THROW(c.add_resistor(a, kGround, 0.0), std::invalid_argument);
  EXPECT_THROW(c.add_resistor(a, 99, 1.0), std::invalid_argument);
  EXPECT_THROW(c.add_capacitor(a, a, 1 * fF), std::invalid_argument);
  EXPECT_THROW(c.add_capacitor(a, kGround, -1 * fF), std::invalid_argument);
  EXPECT_THROW(c.add_vsource(a, kGround, Pwl{}), std::invalid_argument);
}

TEST(Mna, VoltageDividerDc) {
  // v1 --R1-- v2 --R2-- gnd with 1V source at v1.
  Circuit c;
  const NodeId v1 = c.node("v1");
  const NodeId v2 = c.node("v2");
  c.add_vsource(v1, kGround, Pwl::constant(1.0));
  c.add_resistor(v1, v2, 1 * kOhm);
  c.add_resistor(v2, kGround, 3 * kOhm);
  MnaSystem mna(c);
  auto lu = LuFactor::make(mna.Gs().to_dense());
  ASSERT_TRUE(lu.ok());
  const Vector x = lu->solve(mna.rhs(0.0));
  EXPECT_NEAR(mna.node_voltage(x, v1), 1.0, 1e-9);
  EXPECT_NEAR(mna.node_voltage(x, v2), 0.75, 1e-6);
  // Branch current through the source: 1V over 4k, flowing out of +.
  EXPECT_NEAR(x[mna.vsource_index(0)], -1.0 / (4 * kOhm), 1e-9);
}

TEST(Mna, CurrentSourceIntoResistor) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_resistor(a, kGround, 2 * kOhm);
  c.add_isource(a, kGround, Pwl::constant(1 * mA));
  MnaSystem mna(c);
  auto lu = LuFactor::make(mna.Gs().to_dense());
  ASSERT_TRUE(lu.ok());
  const Vector x = lu->solve(mna.rhs(0.0));
  EXPECT_NEAR(mna.node_voltage(x, a), 2.0, 1e-6);
}

TEST(Mna, CouplingCapStampSymmetry) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add_capacitor(a, b, 10 * fF);
  c.add_capacitor(a, kGround, 4 * fF);
  MnaSystem mna(c);
  const Matrix cm = mna.Cs().to_dense();
  const std::size_t ia = mna.node_index(a), ib = mna.node_index(b);
  EXPECT_NEAR(cm(ia, ia), 14 * fF, 1e-20);
  EXPECT_NEAR(cm(ib, ib), 10 * fF, 1e-20);
  EXPECT_NEAR(cm(ia, ib), -10 * fF, 1e-20);
  EXPECT_NEAR(cm(ib, ia), -10 * fF, 1e-20);
}

TEST(Mna, GroundIndexingRejected) {
  Circuit c;
  c.node("a");
  MnaSystem mna(c);
  EXPECT_THROW(mna.node_index(kGround), std::invalid_argument);
  EXPECT_THROW(mna.vsource_index(0), std::invalid_argument);
}

TEST(Mna, MosfetCapsEnterCMatrix) {
  Circuit c;
  const NodeId d = c.node("d");
  const NodeId g = c.node("g");
  MosfetParams p;  // Defaults: 1 um wide NMOS.
  c.add_mosfet(d, g, kGround, p);
  MnaSystem mna(c);
  const std::size_t ig = mna.node_index(g);
  // Gate sees cgs + cgd.
  EXPECT_NEAR(mna.Cs().at(ig, ig), p.cgs() + p.cgd(), 1e-20);
  const std::size_t idd = mna.node_index(d);
  EXPECT_NEAR(mna.Cs().at(idd, ig), -p.cgd(), 1e-22);
}

}  // namespace
}  // namespace dn
