// PRIMA passivity properties: for an RC network driven by current sources
// (symmetric PSD G and C), the congruence projection V^T G V / V^T C V
// must preserve symmetry and positive-semidefiniteness — the reason PRIMA
// models can be reused safely inside any surrounding linear simulation.
#include <gtest/gtest.h>

#include "circuit/mna.hpp"
#include "mor/prima.hpp"
#include "rcnet/net.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

DescriptorSystem random_rc_system(Rng& rng, int* states_out) {
  Circuit ckt;
  const int segs = rng.uniform_int(5, 25);
  const RcTree line = make_line(segs, rng.log_uniform(200.0, 3000.0),
                                rng.log_uniform(20 * fF, 200 * fF));
  const auto map = line.instantiate(ckt, "n");
  ckt.add_resistor(map[0], kGround, rng.log_uniform(100.0, 2000.0));
  // A few random extra caps and cross resistors keep it non-trivial.
  for (int i = 0; i < 3; ++i) {
    const int a = rng.uniform_int(1, segs);
    ckt.add_capacitor(map[static_cast<std::size_t>(a)], kGround,
                      rng.log_uniform(1 * fF, 20 * fF));
  }
  MnaSystem mna(ckt);
  DescriptorSystem sys{mna.Gs().to_dense(), mna.Cs().to_dense(),
                       Matrix(mna.dim(), 1), Matrix(mna.dim(), 1)};
  sys.B(mna.node_index(map[0]), 0) = 1.0;
  sys.L(mna.node_index(map[static_cast<std::size_t>(line.sink)]), 0) = 1.0;
  if (states_out) *states_out = static_cast<int>(mna.dim());
  return sys;
}

bool symmetric(const Matrix& m, double tol) {
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = i + 1; j < m.cols(); ++j)
      if (std::abs(m(i, j) - m(j, i)) > tol) return false;
  return true;
}

/// Quadratic-form nonnegativity over random probes (PSD witness).
bool psd_witness(const Matrix& m, Rng& rng, double tol) {
  const std::size_t n = m.rows();
  for (int trial = 0; trial < 50; ++trial) {
    Vector x(n);
    for (auto& v : x) v = rng.uniform(-1, 1);
    const Vector mx = m * x;
    if (dot(x, mx) < -tol) return false;
  }
  return true;
}

class PrimaPassivity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrimaPassivity, ReducedSystemStaysSymmetricPsd) {
  Rng rng(GetParam());
  int states = 0;
  const DescriptorSystem sys = random_rc_system(rng, &states);
  ASSERT_TRUE(symmetric(sys.G, 1e-12));
  ASSERT_TRUE(symmetric(sys.C, 1e-24));

  const ReducedModel rm = prima(sys, 6);
  // Scale-aware tolerances (C entries are ~1e-13).
  EXPECT_TRUE(symmetric(rm.sys.G, 1e-9 * rm.sys.G.norm()));
  EXPECT_TRUE(symmetric(rm.sys.C, 1e-9 * rm.sys.C.norm()));
  EXPECT_TRUE(psd_witness(rm.sys.G, rng, 1e-9 * rm.sys.G.norm()));
  EXPECT_TRUE(psd_witness(rm.sys.C, rng, 1e-9 * rm.sys.C.norm()));
}

TEST_P(PrimaPassivity, ReducedTransientIsStable) {
  // Passivity implies the zero-input response decays: start the reduced
  // model from a nonzero state via a brief current kick and check decay.
  Rng rng(GetParam() ^ 0xabcdef);
  const DescriptorSystem sys = random_rc_system(rng, nullptr);
  const ReducedModel rm = prima(sys, 6);
  const Pwl kick({0.0, 50 * ps, 100 * ps, 10 * ns},
                 {0.0, 1 * mA, 0.0, 0.0});
  const auto y = simulate_descriptor(rm.sys, {kick}, {0.0, 10 * ns, 5 * ps});
  const double peak = std::abs(y[0].peak().value);
  ASSERT_GT(peak, 0.0);
  EXPECT_LT(std::abs(y[0].at(10 * ns)), 0.02 * peak);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrimaPassivity,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace dn
