// C-effective iteration tests (ceff/effective_capacitance.*).
#include "ceff/effective_capacitance.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

constexpr double kVdd = 1.8;

GateParams driver(double size = 2.0) {
  GateParams g;
  g.type = GateType::Inverter;
  g.size = size;
  return g;
}

// The driver's input: a 100 ps rising ramp from t = 100 ps, so the
// inverter's output falls.
constexpr double kSlew = 100 * ps;
constexpr double kStart = 100 * ps;

CeffResult ceff_of(const RcTree& net,
                   const std::vector<std::pair<int, double>>& extra = {},
                   double sink_cap = 0.0, const CeffOptions& opts = {}) {
  return compute_ceff(driver(), kSlew, false, kStart, net, extra, sink_cap,
                      opts);
}

/// One node holding the whole load.
RcTree lumped(double c) {
  RcTree t;
  t.caps = {{0, c}};
  return t;
}

/// `c_near` at the port, `c_far` behind `r_shield`.
RcTree shielded_pi(double c_near, double r_shield, double c_far) {
  RcTree t;
  t.num_nodes = 2;
  t.res = {{0, 1, r_shield}};
  t.caps = {{0, c_near}, {1, c_far}};
  t.sink = 1;
  return t;
}

TEST(Ceff, LumpedLoadIsItsOwnCeff) {
  // Pure capacitor load: Ceff must converge to (nearly) the total cap.
  const double c = 80 * fF;
  const CeffResult r = ceff_of(lumped(c));
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.ceff, c, 0.08 * c);
}

TEST(Ceff, ResistiveShieldingReducesCeff) {
  // Far cap behind a big resistance is partially hidden from the driver.
  const double c_near = 10 * fF, c_far = 90 * fF, r_shield = 5 * kOhm;
  const CeffResult r = ceff_of(shielded_pi(c_near, r_shield, c_far));
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.ceff, 0.85 * (c_near + c_far));
  EXPECT_GT(r.ceff, c_near);
}

TEST(Ceff, MoreShieldingMeansSmallerCeff) {
  auto ceff_with_shield = [&](double r_shield) {
    return ceff_of(shielded_pi(10 * fF, r_shield, 90 * fF)).ceff;
  };
  EXPECT_GT(ceff_with_shield(200.0), ceff_with_shield(10 * kOhm));
}

TEST(Ceff, ExtraNodeCapsEnterTheLoad) {
  const RcTree line = make_line(4, 500.0, 40 * fF);
  const CeffResult plain = ceff_of(line, {}, 0.0);
  const CeffResult loaded = ceff_of(line, {{0, 30 * fF}}, 0.0);
  EXPECT_GT(loaded.ceff, plain.ceff + 15 * fF);
}

TEST(Ceff, ConvergesQuickly) {
  const RcTree line = make_line(10, 2 * kOhm, 100 * fF);
  const CeffResult r = ceff_of(line, {}, 10 * fF);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 6);
}

TEST(Ceff, ModelIsFitAtReportedCeff) {
  // The reported load and the reported model belong together: looking the
  // driver's table up at r.ceff reproduces r.model bit for bit, whether
  // the iteration converged or ran out of budget.
  const RcTree line = make_line(10, 2 * kOhm, 100 * fF);
  for (const int budget : {15, 2}) {
    CeffOptions opts;
    opts.max_iterations = budget;
    const CeffResult r = ceff_of(line, {}, 10 * fF, opts);
    EXPECT_EQ(r.converged, budget == 15);
    const TheveninModel m = driver_table(driver(), false, opts.fit)
                                .lookup(kSlew, r.ceff, kStart);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.t0),
              std::bit_cast<std::uint64_t>(r.model.t0));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.tr),
              std::bit_cast<std::uint64_t>(r.model.tr));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.rth),
              std::bit_cast<std::uint64_t>(r.model.rth));
    EXPECT_EQ(m.v_from, r.model.v_from);
    EXPECT_EQ(m.v_to, r.model.v_to);
  }
}

TEST(Ceff, InvalidTotalThrows) {
  // A tree with no caps and no pin cap has no load to seed the iteration.
  EXPECT_THROW(ceff_of(RcTree{}), std::invalid_argument);
}

}  // namespace
}  // namespace dn
