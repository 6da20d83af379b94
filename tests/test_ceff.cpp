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

CeffResult ceff_of(const LoadBuilder& builder, double c_total,
                   const CeffOptions& opts = {}) {
  return compute_ceff(driver(), kSlew, false, kStart, builder, c_total, opts);
}

CeffResult ceff_of_net(const RcTree& net,
                       const std::vector<std::pair<int, double>>& extra,
                       double sink_cap, const CeffOptions& opts = {}) {
  return compute_ceff_for_net(driver(), kSlew, false, kStart, net, extra,
                              sink_cap, opts);
}

TEST(Ceff, LumpedLoadIsItsOwnCeff) {
  // Pure capacitor load: Ceff must converge to (nearly) the total cap.
  const double c = 80 * fF;
  LoadBuilder builder = [&](Circuit& ckt) {
    const NodeId port = ckt.node("port");
    ckt.add_capacitor(port, kGround, c);
    return port;
  };
  const CeffResult r = ceff_of(builder, c);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.ceff, c, 0.08 * c);
}

TEST(Ceff, ResistiveShieldingReducesCeff) {
  // Far cap behind a big resistance is partially hidden from the driver.
  const double c_near = 10 * fF, c_far = 90 * fF, r_shield = 5 * kOhm;
  LoadBuilder builder = [&](Circuit& ckt) {
    const NodeId port = ckt.node("port");
    const NodeId far = ckt.node("far");
    ckt.add_capacitor(port, kGround, c_near);
    ckt.add_resistor(port, far, r_shield);
    ckt.add_capacitor(far, kGround, c_far);
    return port;
  };
  const CeffResult r = ceff_of(builder, c_near + c_far);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.ceff, 0.85 * (c_near + c_far));
  EXPECT_GT(r.ceff, c_near);
}

TEST(Ceff, MoreShieldingMeansSmallerCeff) {
  auto ceff_with_shield = [&](double r_shield) {
    LoadBuilder builder = [&](Circuit& ckt) {
      const NodeId port = ckt.node("port");
      const NodeId far = ckt.node("far");
      ckt.add_capacitor(port, kGround, 10 * fF);
      ckt.add_resistor(port, far, r_shield);
      ckt.add_capacitor(far, kGround, 90 * fF);
      return port;
    };
    return ceff_of(builder, 100 * fF).ceff;
  };
  EXPECT_GT(ceff_with_shield(200.0), ceff_with_shield(10 * kOhm));
}

TEST(Ceff, NetFormMatchesGeneralForm) {
  const RcTree line = make_line(8, 1 * kOhm, 80 * fF);
  const CeffResult by_net = ceff_of_net(line, {}, 5 * fF);
  LoadBuilder builder = [&](Circuit& ckt) {
    const auto map = line.instantiate(ckt, "n");
    ckt.add_capacitor(map[static_cast<std::size_t>(line.sink)], kGround, 5 * fF);
    return map[0];
  };
  const CeffResult by_builder = ceff_of(builder, line.total_cap() + 5 * fF);
  EXPECT_NEAR(by_net.ceff, by_builder.ceff, 0.01 * by_builder.ceff);
}

TEST(Ceff, ExtraNodeCapsEnterTheLoad) {
  const RcTree line = make_line(4, 500.0, 40 * fF);
  const CeffResult plain = ceff_of_net(line, {}, 0.0);
  const CeffResult loaded = ceff_of_net(line, {{0, 30 * fF}}, 0.0);
  EXPECT_GT(loaded.ceff, plain.ceff + 15 * fF);
}

TEST(Ceff, ConvergesQuickly) {
  const RcTree line = make_line(10, 2 * kOhm, 100 * fF);
  const CeffResult r = ceff_of_net(line, {}, 10 * fF);
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
    const CeffResult r = ceff_of_net(line, {}, 10 * fF, opts);
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
  LoadBuilder builder = [&](Circuit& ckt) { return ckt.node("p"); };
  EXPECT_THROW(ceff_of(builder, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace dn
