// PRIMA model-order reduction tests (mor/prima.*).
#include "mor/prima.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/mna.hpp"
#include "rcnet/net.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

/// Descriptor system of an RC line driven by a current source at the root
/// (grounded through r_gnd there), observed at the far end.
DescriptorSystem rc_line_system(int segments, double r_total, double c_total,
                                double r_gnd, Circuit& ckt, NodeId* sink_out) {
  const RcTree line = make_line(segments, r_total, c_total);
  const auto map = line.instantiate(ckt, "n");
  ckt.add_resistor(map[0], kGround, r_gnd);
  MnaSystem mna(ckt);
  DescriptorSystem sys;
  sys.G = mna.Gs().to_dense();
  sys.C = mna.Cs().to_dense();
  sys.B = Matrix(mna.dim(), 1);
  sys.B(mna.node_index(map[0]), 0) = 1.0;  // Unit current into the root.
  sys.L = Matrix(mna.dim(), 1);
  sys.L(mna.node_index(map[static_cast<std::size_t>(line.sink)]), 0) = 1.0;
  if (sink_out) *sink_out = map[static_cast<std::size_t>(line.sink)];
  return sys;
}

TEST(Prima, ShapeChecks) {
  Circuit ckt;
  const DescriptorSystem sys = rc_line_system(10, 1 * kOhm, 100 * fF, 500.0,
                                              ckt, nullptr);
  const ReducedModel rm = prima(sys, 4);
  EXPECT_EQ(rm.order(), 4);
  EXPECT_EQ(rm.sys.B.rows(), 4u);
  EXPECT_EQ(rm.sys.B.cols(), 1u);
  EXPECT_EQ(rm.sys.L.cols(), 1u);
  EXPECT_EQ(rm.V.rows(), sys.G.rows());
  EXPECT_EQ(rm.V.cols(), 4u);
}

TEST(Prima, BasisIsOrthonormal) {
  Circuit ckt;
  const DescriptorSystem sys = rc_line_system(12, 2 * kOhm, 120 * fF, 300.0,
                                              ckt, nullptr);
  const ReducedModel rm = prima(sys, 6);
  const Matrix vtv = rm.V.transposed() * rm.V;
  for (std::size_t i = 0; i < vtv.rows(); ++i)
    for (std::size_t j = 0; j < vtv.cols(); ++j)
      EXPECT_NEAR(vtv(i, j), i == j ? 1.0 : 0.0, 1e-9);
}

TEST(Prima, DcGainIsPreservedExactly) {
  // The first Krylov block spans G^{-1}B, so DC transfer is exact.
  Circuit ckt;
  const DescriptorSystem sys = rc_line_system(10, 1 * kOhm, 100 * fF, 700.0,
                                              ckt, nullptr);
  // Full DC: y = L^T G^{-1} B.
  auto full_lu_or = LuFactor::make(sys.G);
  ASSERT_TRUE(full_lu_or.ok());
  const LuFactor& full_lu = *full_lu_or;
  Vector b(sys.G.rows());
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = sys.B(i, 0);
  const Vector x_full = full_lu.solve(b);
  double y_full = 0.0;
  for (std::size_t i = 0; i < x_full.size(); ++i) y_full += sys.L(i, 0) * x_full[i];

  const ReducedModel rm = prima(sys, 3);
  auto red_lu_or = LuFactor::make(rm.sys.G);
  ASSERT_TRUE(red_lu_or.ok());
  const LuFactor& red_lu = *red_lu_or;
  Vector br(rm.sys.B.rows());
  for (std::size_t i = 0; i < br.size(); ++i) br[i] = rm.sys.B(i, 0);
  const Vector x_red = red_lu.solve(br);
  double y_red = 0.0;
  for (std::size_t i = 0; i < x_red.size(); ++i) y_red += rm.sys.L(i, 0) * x_red[i];

  EXPECT_NEAR(y_red, y_full, 1e-6 * std::abs(y_full));
}

TEST(Prima, TransientMatchesFullModel) {
  Circuit ckt;
  const DescriptorSystem sys = rc_line_system(20, 2 * kOhm, 200 * fF, 400.0,
                                              ckt, nullptr);
  const TransientSpec spec{0.0, 3 * ns, 2 * ps};
  // Current pulse input.
  const std::vector<Pwl> u{Pwl({0.0, 100 * ps, 300 * ps, 500 * ps, 3 * ns},
                               {0.0, 0.0, 0.4 * mA, 0.0, 0.0})};
  const Pwl y_full = simulate_descriptor(sys, u, spec)[0];
  const ReducedModel rm = prima(sys, 8);
  const Pwl y_red = simulate_descriptor(rm.sys, u, spec)[0];

  const double scale = std::max(std::abs(y_full.max_value()),
                                std::abs(y_full.min_value()));
  ASSERT_GT(scale, 0.0);
  for (double t = 0; t <= 3 * ns; t += 50 * ps)
    EXPECT_NEAR(y_red.at(t), y_full.at(t), 0.02 * scale) << "t=" << t;
}

TEST(Prima, HigherOrderIsMoreAccurate) {
  Circuit ckt;
  const DescriptorSystem sys = rc_line_system(30, 4 * kOhm, 300 * fF, 300.0,
                                              ckt, nullptr);
  const TransientSpec spec{0.0, 4 * ns, 2 * ps};
  const std::vector<Pwl> u{Pwl({0.0, 50 * ps, 100 * ps, 150 * ps, 4 * ns},
                               {0.0, 0.0, 1 * mA, 0.0, 0.0})};
  const Pwl y_full = simulate_descriptor(sys, u, spec)[0];
  auto err_for = [&](int order) {
    const ReducedModel rm = prima(sys, order);
    const Pwl y = simulate_descriptor(rm.sys, u, spec)[0];
    double worst = 0.0;
    for (double t = 0; t <= 4 * ns; t += 20 * ps)
      worst = std::max(worst, std::abs(y.at(t) - y_full.at(t)));
    return worst;
  };
  EXPECT_LT(err_for(10), err_for(2) + 1e-15);
}

TEST(Prima, DeflationStopsAtKrylovExhaustion) {
  // A 2-node system cannot produce more than 2 basis vectors.
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  ckt.add_resistor(a, b, 1 * kOhm);
  ckt.add_resistor(b, kGround, 1 * kOhm);
  ckt.add_capacitor(a, kGround, 10 * fF);
  ckt.add_capacitor(b, kGround, 10 * fF);
  MnaSystem mna(ckt);
  DescriptorSystem sys{mna.Gs().to_dense(), mna.Cs().to_dense(), Matrix(2, 1),
                       Matrix(2, 1)};
  sys.B(0, 0) = 1.0;
  sys.L(1, 0) = 1.0;
  const ReducedModel rm = prima(sys, 10);
  EXPECT_LE(rm.order(), 2);
  EXPECT_GE(rm.order(), 1);
}

TEST(Prima, InvalidArgumentsThrow) {
  DescriptorSystem sys{Matrix(2, 2), Matrix(2, 2), Matrix(2, 1), Matrix(2, 1)};
  EXPECT_THROW(prima(sys, 0), std::invalid_argument);
  DescriptorSystem bad{Matrix(2, 2), Matrix(3, 3), Matrix(2, 1), Matrix(2, 1)};
  EXPECT_THROW(prima(bad, 2), std::invalid_argument);
  EXPECT_THROW(simulate_descriptor(sys, {}, {0, 1e-9, 1e-12}),
               std::invalid_argument);
}

}  // namespace
}  // namespace dn
