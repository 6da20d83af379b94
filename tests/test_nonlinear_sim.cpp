// Nonlinear simulator tests: inverter DC transfer, switching transients,
// and agreement with the linear simulator on linear circuits.
#include "sim/nonlinear_sim.hpp"

#include <gtest/gtest.h>

#include "sim/linear_sim.hpp"
#include "util/units.hpp"
#include "waveform/pulse.hpp"

namespace dn {
namespace {

using namespace dn::units;

constexpr double kVdd = 1.8;

// Builds a CMOS inverter driving `cload`, input driven by `vin`.
struct InverterFixture {
  Circuit ckt;
  NodeId in, out, vdd;

  explicit InverterFixture(const Pwl& vin, double cload, double wn = 2 * um,
                           double wp = 4 * um) {
    vdd = ckt.node("vdd");
    in = ckt.node("in");
    out = ckt.node("out");
    ckt.add_vsource(vdd, kGround, Pwl::constant(kVdd));
    ckt.add_vsource(in, kGround, vin);
    MosfetParams nm;
    nm.type = MosType::Nmos;
    nm.w = wn;
    MosfetParams pm;
    pm.type = MosType::Pmos;
    pm.kp = 60e-6;
    pm.w = wp;
    ckt.add_mosfet(out, in, kGround, nm);   // NMOS pulls down.
    ckt.add_mosfet(out, in, vdd, pm);       // PMOS pulls up.
    if (cload > 0) ckt.add_capacitor(out, kGround, cload);
  }
};

TEST(NonlinearSim, InverterDcRails) {
  {
    InverterFixture f(Pwl::constant(0.0), 10 * fF);
    NonlinearSim sim(f.ckt);
    const Vector x = sim.try_dc_solve(0.0).value();
    EXPECT_NEAR(sim.mna().node_voltage(x, f.out), kVdd, 0.01);
  }
  {
    InverterFixture f(Pwl::constant(kVdd), 10 * fF);
    NonlinearSim sim(f.ckt);
    const Vector x = sim.try_dc_solve(0.0).value();
    EXPECT_NEAR(sim.mna().node_voltage(x, f.out), 0.0, 0.01);
  }
}

TEST(NonlinearSim, InverterVtcIsMonotonicallyFalling) {
  double prev = kVdd + 1;
  for (double vin = 0.0; vin <= kVdd + 1e-9; vin += 0.15) {
    InverterFixture f(Pwl::constant(vin), 10 * fF);
    NonlinearSim sim(f.ckt);
    const Vector x = sim.try_dc_solve(0.0).value();
    const double vout = sim.mna().node_voltage(x, f.out);
    EXPECT_LT(vout, prev + 1e-6) << "vin=" << vin;
    prev = vout;
  }
}

TEST(NonlinearSim, InverterSwitchingTransient) {
  // Rising input -> falling output crossing Vdd/2 after the input does.
  InverterFixture f(Pwl::ramp(100 * ps, 100 * ps, 0.0, kVdd), 30 * fF);
  NonlinearSim sim(f.ckt);
  const auto res = sim.try_run({0.0, 1.5 * ns, 1 * ps}).value();
  const Pwl vout = res.waveform(f.out);
  EXPECT_NEAR(vout.at(0.0), kVdd, 0.02);
  EXPECT_NEAR(vout.at(1.5 * ns), 0.0, 0.02);
  const auto t_in_50 = Pwl::ramp(100 * ps, 100 * ps, 0.0, kVdd).crossing(kVdd / 2);
  const auto t_out_50 = vout.crossing(kVdd / 2, false);
  ASSERT_TRUE(t_out_50.has_value());
  EXPECT_GT(*t_out_50, *t_in_50);
  EXPECT_LT(*t_out_50, *t_in_50 + 500 * ps);
}

TEST(NonlinearSim, HeavierLoadSlowsTheOutput) {
  auto delay_for = [](double cl) {
    InverterFixture f(Pwl::ramp(100 * ps, 100 * ps, 0.0, kVdd), cl);
    NonlinearSim sim(f.ckt);
    const auto res = sim.try_run({0.0, 3 * ns, 1 * ps}).value();
    return *res.waveform(f.out).crossing(kVdd / 2, false);
  };
  EXPECT_GT(delay_for(100 * fF), delay_for(20 * fF) + 20 * ps);
}

TEST(NonlinearSim, MatchesLinearSimOnLinearCircuit) {
  // Same RC circuit through both engines must agree to solver tolerance.
  auto build = [](Circuit& c) {
    const NodeId in = c.node("in");
    const NodeId out = c.node("out");
    c.add_vsource(in, kGround, Pwl::ramp(50 * ps, 200 * ps, 0.0, 1.8));
    c.add_resistor(in, out, 2 * kOhm);
    c.add_capacitor(out, kGround, 60 * fF);
    return out;
  };
  Circuit c1, c2;
  const NodeId o1 = build(c1);
  const NodeId o2 = build(c2);
  const TransientSpec spec{0.0, 1 * ns, 1 * ps};
  const Pwl lin = LinearSim(c1).try_run(spec).value().waveform(o1);
  const Pwl nl = NonlinearSim(c2).try_run(spec).value().waveform(o2);
  for (double t = 0; t <= 1 * ns; t += 20 * ps)
    EXPECT_NEAR(lin.at(t), nl.at(t), 1e-6) << "t=" << t;
}

TEST(NonlinearSim, NoiseCurrentInjectionOnHeldInverter) {
  // A current pulse into a driven-low inverter output bumps the node up and
  // decays back: the circuit-level setup used in Rtr extraction (Fig 4b).
  InverterFixture f(Pwl::constant(kVdd), 20 * fF);  // NMOS on, output low.
  f.ckt.add_isource(f.out, kGround,
                    triangle_pulse(0.4 * mA, 100 * ps, 500 * ps));
  NonlinearSim sim(f.ckt);
  const auto res = sim.try_run({0.0, 1.5 * ns, 1 * ps}).value();
  const Pwl vout = res.waveform(f.out);
  const auto pk = vout.peak(0.0);
  EXPECT_GT(pk.value, 0.02);
  EXPECT_LT(pk.value, kVdd / 2);
  EXPECT_NEAR(vout.at(1.5 * ns), 0.0, 0.01);
  EXPECT_NEAR(pk.t, 500 * ps, 60 * ps);
}

TEST(NonlinearSim, BadSpecIsInvalidArgument) {
  // An absurd spec (dt = 0) must come back as a Status, not loop forever,
  // return junk, or throw through the public API.
  InverterFixture f(Pwl::constant(0.0), 10 * fF);
  NonlinearSim sim(f.ckt);
  const auto res = sim.try_run({0.0, 1 * ns, 0.0});
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

TEST(NonlinearSim, NonConvergenceIsNumericError) {
  // One Newton iteration cannot converge an inverter DC point from a cold
  // start; the failure must surface as kNumericError, not an exception.
  InverterFixture f(Pwl::ramp(100 * ps, 100 * ps, 0.0, kVdd), 30 * fF);
  NewtonOptions newton;
  newton.max_iterations = 1;
  NonlinearSim sim(f.ckt, newton);
  const auto res = sim.try_run({0.0, 1 * ns, 1 * ps});
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kNumericError);
}

}  // namespace
}  // namespace dn
