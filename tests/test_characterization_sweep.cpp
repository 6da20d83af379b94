// Characterization across all gate types and drive strengths: the flow
// must work for any library cell as driver or receiver, and twice with the
// same seed must be bit-identical (full determinism).
#include <gtest/gtest.h>

#include <tuple>

#include "ceff/effective_capacitance.hpp"
#include "clarinet/analyzer.hpp"
#include "core/alignment_table.hpp"
#include "rcnet/random_nets.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

constexpr double kVdd = 1.8;

// Thevenin + Ceff characterization across every gate type and both
// transition directions.
class DriverSweep
    : public ::testing::TestWithParam<std::tuple<GateType, bool, double>> {};

TEST_P(DriverSweep, CharacterizesCleanly) {
  const auto [type, rising, size] = GetParam();
  GateParams g;
  g.type = type;
  g.size = size;
  const RcTree net = make_line(6, 900.0, 60 * fF);
  const CeffResult r =
      compute_ceff(g, 150 * ps, rising, 100 * ps, net, {}, 4 * fF);
  EXPECT_TRUE(r.converged) << gate_type_name(type);
  EXPECT_GT(r.ceff, 10 * fF);
  EXPECT_LT(r.ceff, 70 * fF);
  EXPECT_EQ(r.model.rising(), rising);
  EXPECT_GT(r.model.rth, 10.0);
  EXPECT_LT(r.model.rth, 50 * kOhm);
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, DriverSweep,
    ::testing::Combine(::testing::Values(GateType::Inverter, GateType::Buffer,
                                         GateType::Nand2, GateType::Nor2),
                       ::testing::Bool(), ::testing::Values(1.0, 4.0)));

// Alignment tables for non-inverter receivers.
class ReceiverTableSweep : public ::testing::TestWithParam<GateType> {};

TEST_P(ReceiverTableSweep, TableCharacterizes) {
  GateParams rcv;
  rcv.type = GetParam();
  rcv.size = 2.0;
  AlignmentTableSpec spec;
  spec.search.coarse_points = 17;
  spec.search.fine_points = 9;
  spec.search.dt = 2 * ps;
  const AlignmentTable tbl = AlignmentTable::characterize(rcv, true, spec);
  for (int si = 0; si < 2; ++si)
    for (int wi = 0; wi < 2; ++wi)
      for (int hi = 0; hi < 2; ++hi) {
        const double va = tbl.alignment_voltage(si, wi, hi);
        EXPECT_GT(va, 0.2 * kVdd) << gate_type_name(GetParam());
        EXPECT_LE(va, kVdd) << gate_type_name(GetParam());
      }
  // A mid-box query maps onto the transition.
  const Pwl ramp = Pwl::ramp(2 * ns, 200 * ps, 0.0, kVdd);
  PulseParams p;
  p.height = -0.4;
  p.width = 150 * ps;
  p.t_peak = 2 * ns;
  const double t = tbl.predict_peak_time(ramp, p);
  EXPECT_GE(t, ramp.t_begin() - 1 * ps);
  EXPECT_LE(t, ramp.t_end() + 1 * ps);
}

INSTANTIATE_TEST_SUITE_P(Receivers, ReceiverTableSweep,
                         ::testing::Values(GateType::Inverter, GateType::Buffer,
                                           GateType::Nand2, GateType::Nor2));

TEST(Determinism, SameSeedSameResultBitwise) {
  auto run_once = [] {
    Rng rng(777);
    const CoupledNet net = random_coupled_net(rng);
    SuperpositionEngine eng(net);
    DelayNoiseOptions opts;
    opts.method = AlignmentMethod::Exhaustive;
    opts.search.coarse_points = 17;
    opts.search.fine_points = 9;
    opts.search.dt = 2 * ps;
    const DelayNoiseResult r = analyze_delay_noise(eng, opts);
    return std::make_tuple(r.delay_noise(), r.holding_r,
                           r.composite.params.height, r.alignment.t_peak);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  EXPECT_EQ(std::get<3>(a), std::get<3>(b));
}

}  // namespace
}  // namespace dn
