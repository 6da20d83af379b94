// Gate primitive tests: logic levels, drive strength, the GateSim re-drive
// contract, library lookups.
#include "devices/gate.hpp"
#include "devices/gate_library.hpp"

#include <gtest/gtest.h>

#include "sim/nonlinear_sim.hpp"
#include "util/units.hpp"
#include "waveform/pulse.hpp"

namespace dn {
namespace {

using namespace dn::units;

constexpr double kVdd = 1.8;

GateParams make(GateType t, double size = 1.0) {
  GateParams g;
  g.type = t;
  g.size = size;
  return g;
}

/// One run of a freshly built kSingle GateSim.
Pwl simulate(const GateParams& g, const Pwl& vin, double cload,
             const TransientSpec& spec) {
  GateSim sim(g, cload);
  return sim.try_run(vin, spec).value();
}

void expect_same_bytes(const Pwl& a, const Pwl& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.times()[i], b.times()[i]) << "i=" << i;
    ASSERT_EQ(a.values()[i], b.values()[i]) << "i=" << i;
  }
}

TEST(Gate, InversionTable) {
  EXPECT_TRUE(gate_inverts(GateType::Inverter));
  EXPECT_TRUE(gate_inverts(GateType::Nand2));
  EXPECT_TRUE(gate_inverts(GateType::Nor2));
  EXPECT_FALSE(gate_inverts(GateType::Buffer));
}

TEST(Gate, TypeNames) {
  EXPECT_STREQ(gate_type_name(GateType::Inverter), "INV");
  EXPECT_STREQ(gate_type_name(GateType::Nand2), "NAND2");
}

TEST(Gate, InputCapScalesWithSize) {
  const GateParams x1 = make(GateType::Inverter, 1.0);
  const GateParams x4 = make(GateType::Inverter, 4.0);
  EXPECT_NEAR(x4.input_cap(), 4 * x1.input_cap(), 1e-20);
  EXPECT_GT(x1.input_cap(), 0.0);
  EXPECT_GT(x1.output_parasitic_cap(), 0.0);
}

// All four gate types must produce correct static logic levels when used
// as single-input drivers (side inputs internally tied non-controlling).
class GateStaticLevels : public ::testing::TestWithParam<GateType> {};

TEST_P(GateStaticLevels, DrivesBothRails) {
  const GateParams g = make(GetParam(), 2.0);
  for (double vin : {0.0, kVdd}) {
    const Pwl out =
        simulate(g, Pwl::constant(vin), 20 * fF, {0.0, 0.5 * ns, 2 * ps});
    // Inverting gates drive the opposite rail, the buffer the same one.
    const bool input_high = vin == kVdd;
    const double expect = input_high != gate_inverts(g.type) ? kVdd : 0.0;
    EXPECT_NEAR(out.at(0.5 * ns), expect, 0.02)
        << gate_type_name(g.type) << " vin=" << vin;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, GateStaticLevels,
                         ::testing::Values(GateType::Inverter, GateType::Buffer,
                                           GateType::Nand2, GateType::Nor2));

// Dynamic check: each type switches and respects its polarity.
class GateSwitching : public ::testing::TestWithParam<GateType> {};

TEST_P(GateSwitching, OutputFollowsPolarity) {
  const GateParams g = make(GetParam(), 2.0);
  const Pwl vin = Pwl::ramp(100 * ps, 100 * ps, 0.0, kVdd);
  const Pwl out = simulate(g, vin, 30 * fF, {0.0, 2.5 * ns, 2 * ps});
  const double v_final = gate_inverts(g.type) ? 0.0 : kVdd;
  EXPECT_NEAR(out.at(2.5 * ns), v_final, 0.03) << gate_type_name(g.type);
  EXPECT_NEAR(out.at(0.0), kVdd - v_final, 0.03) << gate_type_name(g.type);
}

INSTANTIATE_TEST_SUITE_P(AllTypes, GateSwitching,
                         ::testing::Values(GateType::Inverter, GateType::Buffer,
                                           GateType::Nand2, GateType::Nor2));

TEST(Gate, LargerSizeSwitchesFaster) {
  const Pwl vin = Pwl::ramp(100 * ps, 100 * ps, 0.0, kVdd);
  auto delay_of = [&](double size) {
    const Pwl out = simulate(make(GateType::Inverter, size), vin, 100 * fF,
                             {0.0, 3 * ns, 2 * ps});
    return *out.crossing(kVdd / 2, false);
  };
  EXPECT_GT(delay_of(1.0), delay_of(4.0) + 10 * ps);
}

TEST(Gate, InjectedCurrentPerturbsOutput) {
  const GateParams g = make(GateType::Inverter, 1.0);
  const Pwl vin = Pwl::constant(kVdd);  // Output held low by NMOS.
  const TransientSpec spec{0.0, 1 * ns, 1 * ps};
  const Pwl clean = simulate(g, vin, 20 * fF, spec);
  GateSim injected(g, 20 * fF, GateSim::Kind::kInjected);
  const Pwl bump = triangle_pulse(0.3 * mA, 80 * ps, 400 * ps);
  const Pwl bumped = injected.try_run(vin, spec, nullptr, &bump).value();
  const Pwl diff = bumped - clean;
  EXPECT_GT(diff.peak().value, 0.05);
}

TEST(GateSim, InjectedCurrentIsRequiredExactlyWhenBuiltWithASource) {
  const GateParams g = make(GateType::Inverter, 1.0);
  const Pwl vin = Pwl::constant(kVdd);
  const Pwl bump = triangle_pulse(0.3 * mA, 80 * ps, 400 * ps);
  const TransientSpec spec{0.0, 1 * ns, 1 * ps};
  GateSim plain(g, 20 * fF);
  EXPECT_THROW((void)plain.try_run(vin, spec, nullptr, &bump),
               std::invalid_argument);
  GateSim paired(g, 20 * fF, GateSim::Kind::kPaired);
  EXPECT_THROW((void)paired.try_run(vin, spec), std::invalid_argument);
}

TEST(GateSim, PairedRedriveMatchesFreshSim) {
  // The Rtr loop's reuse contract: one paired sim re-driven through a
  // sequence of injected currents returns, for each, exactly the bytes of
  // a freshly built paired sim driven with that current alone.
  const GateParams g = make(GateType::Inverter, 2.0);
  const Pwl vin = Pwl::ramp(100 * ps, 300 * ps, 0.0, kVdd);
  TransientSpec spec{0.0, 2 * ns, 1 * ps};
  spec.lte_tol = 5e-4;
  spec.stale_jacobian_iters = 16;
  const Pwl a = triangle_pulse(0.3 * mA, 80 * ps, 250 * ps);
  const Pwl b = triangle_pulse(-0.2 * mA, 150 * ps, 400 * ps);

  GateSim reused(g, 30 * fF, GateSim::Kind::kPaired);
  const Pwl va = reused.try_run(vin, spec, nullptr, &a).value();
  const Pwl vb = reused.try_run(vin, spec, nullptr, &b).value();
  GateSim fresh(g, 30 * fF, GateSim::Kind::kPaired);
  const Pwl vb_fresh = fresh.try_run(vin, spec, nullptr, &b).value();

  EXPECT_GT(va.peak().value, 0.01);   // Each current really moved copy 2.
  EXPECT_LT(vb.peak().value, -0.01);
  expect_same_bytes(vb, vb_fresh);
}

TEST(GateLibrary, StandardCellsPresent) {
  const GateLibrary lib = GateLibrary::standard();
  EXPECT_TRUE(lib.has("INVX1"));
  EXPECT_TRUE(lib.has("BUFX4"));
  EXPECT_TRUE(lib.has("NAND2X2"));
  EXPECT_TRUE(lib.has("NOR2X8"));
  EXPECT_EQ(lib.size(), 16u);
  EXPECT_EQ(lib.cell("INVX4").size, 4.0);
  EXPECT_EQ(lib.cell("NAND2X1").type, GateType::Nand2);
}

TEST(GateLibrary, UnknownCellThrows) {
  const GateLibrary lib = GateLibrary::standard();
  EXPECT_THROW(lib.cell("XOR9000"), std::out_of_range);
}

TEST(GateLibrary, AddReplacesExisting) {
  GateLibrary lib = GateLibrary::standard();
  GateParams g = lib.cell("INVX1");
  g.size = 3.0;
  lib.add("INVX1", g);
  EXPECT_EQ(lib.cell("INVX1").size, 3.0);
  EXPECT_EQ(lib.size(), 16u);  // Replaced, not appended.
}

}  // namespace
}  // namespace dn
