// Additional coverage: simulator corner cases, multi-port descriptor
// simulation, receiver-evaluation failure paths, and waveform clipping.
#include <gtest/gtest.h>

#include "circuit/mna.hpp"
#include "core/alignment.hpp"
#include "mor/prima.hpp"
#include "sim/linear_sim.hpp"
#include "sim/nonlinear_sim.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

TEST(LinearSimCorner, CouplingOnlyNodeIsRegularizedByGmin) {
  // A node connected only through a coupling cap has no DC path; the MNA
  // gmin must keep the solve well-posed and the node should follow the
  // aggressor capacitively.
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId fl = ckt.node("floating");
  ckt.add_vsource(a, kGround, Pwl::ramp(100 * ps, 100 * ps, 0.0, 1.0));
  ckt.add_capacitor(a, fl, 10 * fF);
  LinearSim sim(ckt);
  const auto res = sim.try_run({0.0, 1 * ns, 1 * ps}).value();
  // With no other cap on the node, it tracks the source 1:1.
  EXPECT_NEAR(res.waveform(fl).at(0.9 * ns), 1.0, 0.05);
}

TEST(LinearSimCorner, CapacitiveDividerRatio) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId mid = ckt.node("mid");
  ckt.add_vsource(a, kGround, Pwl::ramp(50 * ps, 50 * ps, 0.0, 1.0));
  ckt.add_capacitor(a, mid, 30 * fF);
  ckt.add_capacitor(mid, kGround, 60 * fF);
  LinearSim sim(ckt);
  const auto res = sim.try_run({0.0, 0.5 * ns, 0.5 * ps}).value();
  // Fast edge: divider ratio c1/(c1+c2) = 1/3 right after the edge.
  EXPECT_NEAR(res.waveform(mid).at(150 * ps), 1.0 / 3.0, 0.02);
}

TEST(NonlinearSimCorner, DcSolveOfCrossCoupledPair) {
  // Back-to-back inverters (a latch) have two stable states; gmin stepping
  // must converge to one of them rather than diverging.
  Circuit ckt;
  const NodeId vdd = add_vdd(ckt, 1.8);
  const NodeId x = ckt.node("x");
  const NodeId y = ckt.node("y");
  GateParams g;
  instantiate_gate(ckt, g, x, y, vdd);
  instantiate_gate(ckt, g, y, x, vdd);
  NonlinearSim sim(ckt);
  const Vector sol = sim.try_dc_solve(0.0).value();
  const double vx = sim.mna().node_voltage(sol, x);
  const double vy = sim.mna().node_voltage(sol, y);
  // Complementary rails or the metastable midpoint; all are valid DC
  // solutions, but the voltages must be finite and inside the rails.
  EXPECT_GE(vx, -0.01);
  EXPECT_LE(vx, 1.81);
  EXPECT_GE(vy, -0.01);
  EXPECT_LE(vy, 1.81);
  EXPECT_NEAR(vx + vy, 1.8, 1.85);  // Loose sanity: not both railed high.
}

TEST(NonlinearSimCorner, TransmissionThroughSeriesResistorChain) {
  // Inverter driving through a resistive chain: end settles at the rail.
  Circuit ckt;
  const NodeId vdd = add_vdd(ckt, 1.8);
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  ckt.add_vsource(in, kGround, Pwl::ramp(100 * ps, 50 * ps, 1.8, 0.0));
  GateParams g;
  instantiate_gate(ckt, g, in, out, vdd);
  NodeId prev = out;
  for (int i = 0; i < 5; ++i) {
    const NodeId n = ckt.add_node();
    ckt.add_resistor(prev, n, 2 * kOhm);
    ckt.add_capacitor(n, kGround, 10 * fF);
    prev = n;
  }
  NonlinearSim sim(ckt);
  const auto res = sim.try_run({0.0, 3 * ns, 2 * ps}).value();
  EXPECT_NEAR(res.waveform(prev).at(3 * ns), 1.8, 0.05);
}

TEST(Descriptor, MultiInputMultiOutput) {
  // Two current ports, two observed nodes: superposition must hold in the
  // descriptor simulation too.
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  ckt.add_resistor(a, kGround, 1 * kOhm);
  ckt.add_resistor(b, kGround, 2 * kOhm);
  ckt.add_resistor(a, b, 5 * kOhm);
  ckt.add_capacitor(a, kGround, 10 * fF);
  ckt.add_capacitor(b, kGround, 20 * fF);
  MnaSystem mna(ckt);
  DescriptorSystem sys{mna.Gs().to_dense(), mna.Cs().to_dense(),
                       Matrix(mna.dim(), 2), Matrix(mna.dim(), 2)};
  sys.B(mna.node_index(a), 0) = 1.0;
  sys.B(mna.node_index(b), 1) = 1.0;
  sys.L(mna.node_index(a), 0) = 1.0;
  sys.L(mna.node_index(b), 1) = 1.0;

  const TransientSpec spec{0.0, 1 * ns, 1 * ps};
  const Pwl ia = Pwl({0.0, 100 * ps, 200 * ps, 1 * ns},
                     {0.0, 0.1 * mA, 0.0, 0.0});
  const Pwl ib = Pwl({0.0, 300 * ps, 400 * ps, 1 * ns},
                     {0.0, -0.05 * mA, 0.0, 0.0});
  const Pwl zero = Pwl::constant(0.0, 0.0, 1 * ns);

  const auto both = simulate_descriptor(sys, {ia, ib}, spec);
  const auto only_a = simulate_descriptor(sys, {ia, zero}, spec);
  const auto only_b = simulate_descriptor(sys, {zero, ib}, spec);
  for (double t = 0; t <= 1 * ns; t += 100 * ps) {
    EXPECT_NEAR(both[0].at(t), only_a[0].at(t) + only_b[0].at(t), 1e-9);
    EXPECT_NEAR(both[1].at(t), only_a[1].at(t) + only_b[1].at(t), 1e-9);
  }
}

TEST(EvaluateReceiverCorner, NonSwitchingInputThrows) {
  GateParams rcv;
  // Input never crosses threshold: the output never transitions.
  const Pwl vin = Pwl::constant(0.2, 0.0, 1 * ns);
  GateSim sim(rcv, 10 * fF);
  EXPECT_THROW(evaluate_receiver(sim, vin, true), std::runtime_error);
}

TEST(PwlCorner, ClipValidation) {
  const Pwl r = Pwl::ramp(0.0, 1.0, 0.0, 1.0);
  EXPECT_THROW(r.clipped(0.5, 0.5), std::invalid_argument);
  EXPECT_THROW(Pwl::constant(1.0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(r.resampled(0.0, 1.0, 1), std::invalid_argument);
}

TEST(MnaCorner, VSourceBranchCurrentSigns) {
  // Two sources in a loop: branch currents must be consistent with KCL.
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  const int v1 = ckt.add_vsource(a, kGround, Pwl::constant(2.0));
  const int v2 = ckt.add_vsource(b, kGround, Pwl::constant(1.0));
  ckt.add_resistor(a, b, 1 * kOhm);
  MnaSystem mna(ckt);
  auto lu = LuFactor::make(mna.Gs().to_dense());
  ASSERT_TRUE(lu.ok());
  const Vector x = lu->solve(mna.rhs(0.0));
  // 1 mA flows a -> b; source 1 supplies it (current out of + terminal,
  // so the branch unknown is -1 mA), source 2 absorbs it.
  EXPECT_NEAR(x[mna.vsource_index(v1)], -1 * mA, 1e-6);
  EXPECT_NEAR(x[mna.vsource_index(v2)], +1 * mA, 1e-6);
}

}  // namespace
}  // namespace dn
