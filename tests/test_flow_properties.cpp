// Cross-cutting property tests: invariants of the full analysis flow over
// a seeded random population (parameterized gtest sweep).
#include <gtest/gtest.h>

#include "clarinet/analyzer.hpp"
#include "core/baselines.hpp"
#include "matrix/solver.hpp"
#include "rcnet/random_nets.hpp"
#include "rcnet/spef.hpp"
#include "util/units.hpp"

#include <sstream>

namespace dn {
namespace {

using namespace dn::units;

class FlowProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static DelayNoiseOptions fast_exhaustive() {
    DelayNoiseOptions o;
    o.method = AlignmentMethod::Exhaustive;
    o.search.coarse_points = 21;
    o.search.fine_points = 9;
    o.search.dt = 2 * ps;
    return o;
  }
};

TEST_P(FlowProperty, AnalysisInvariantsHold) {
  Rng rng(GetParam());
  const CoupledNet net = random_coupled_net(rng);
  SuperpositionEngine eng(net);
  const DelayNoiseResult r = analyze_delay_noise(eng, fast_exhaustive());

  // Worst-case slowdown noise cannot be negative (up to grid noise).
  EXPECT_GE(r.delay_noise(), -2 * ps);
  EXPECT_GE(r.input_delay_noise(), -2 * ps);
  // Bounded above by something sane (a few transition times).
  EXPECT_LT(r.delay_noise(), 2 * ns);

  // Composite pulse opposes the victim transition.
  if (net.victim.output_rising)
    EXPECT_LT(r.composite.params.height, 0.0);
  else
    EXPECT_GT(r.composite.params.height, 0.0);
  // Pulse height bounded by the rail.
  EXPECT_LT(std::abs(r.composite.params.height), 1.8);

  // Holding resistance inside the configured clamps and near Rth's decade.
  EXPECT_GE(r.holding_r, 1.0);
  EXPECT_GT(r.holding_r, 0.2 * r.rth);
  EXPECT_LT(r.holding_r, 5.0 * r.rth);

  // Alignment voltage is a real point on the victim swing.
  EXPECT_GE(r.alignment.align_voltage, -0.2);
  EXPECT_LE(r.alignment.align_voltage, 2.0);

  // The noiseless transition is monotone-ish: it spans the rails.
  EXPECT_NEAR(std::abs(r.noiseless_sink.values().front() -
                       r.noiseless_sink.at(r.noiseless_sink.t_end())),
              1.8, 0.05);
}

TEST_P(FlowProperty, SpefRoundTripPreservesAnalysis) {
  Rng rng(GetParam());
  const CoupledNet net = random_coupled_net(rng);
  std::stringstream ss;
  write_spef(ss, net);
  StatusOr<CoupledNet> parsed = try_read_spef(ss);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const CoupledNet back = *std::move(parsed);

  SuperpositionEngine e1(net), e2(back);
  const DelayNoiseOptions opts = fast_exhaustive();
  const double d1 = analyze_delay_noise(e1, opts).delay_noise();
  const double d2 = analyze_delay_noise(e2, opts).delay_noise();
  EXPECT_NEAR(d1, d2, 0.01 * std::abs(d1) + 0.5 * ps);
}

TEST_P(FlowProperty, WindowedNeverExceedsUnconstrained) {
  Rng rng(GetParam());
  const CoupledNet net = random_coupled_net(rng);
  SuperpositionEngine eng(net);
  DelayNoiseOptions free = fast_exhaustive();
  const DelayNoiseResult r_free = analyze_delay_noise(eng, free);

  DelayNoiseOptions boxed = free;
  boxed.search.domain = ScanDomain::interval(
      r_free.alignment.t_peak - 500 * ps, r_free.alignment.t_peak - 200 * ps);
  const DelayNoiseResult r_boxed = analyze_delay_noise(eng, boxed);
  EXPECT_LE(r_boxed.delay_noise(), r_free.delay_noise() + 2 * ps);
}

TEST_P(FlowProperty, BackendEquivalence) {
  Rng rng(GetParam());
  const CoupledNet net = random_coupled_net(rng);

  // The same analysis through the dense and the sparse linear-solver
  // backends must be interchangeable: equivalent reported quantities and
  // waveforms matching to far below any physically meaningful voltage.
  auto run = [&](SolverBackend backend) {
    AnalyzerConfig cfg;
    cfg.analysis = fast_exhaustive();
    cfg.engine.solver.backend = backend;
    NoiseAnalyzer an(cfg);
    StatusOr<DelayNoiseResult> r = an.try_analyze(net);
    EXPECT_TRUE(r.ok()) << r.status().to_string();
    std::string text;
    if (r.ok()) text = DelayNoiseReport::from(net, *r, "equiv").to_text();
    return std::make_pair(std::move(r), std::move(text));
  };

  auto [rd, text_dense] = run(SolverBackend::kDense);
  auto [rs, text_sparse] = run(SolverBackend::kSparse);
  ASSERT_TRUE(rd.ok() && rs.ok());
  // Byte-identical report text is too strong a demand now that stepping
  // is adaptive: discrete accept/reject decisions key off solution
  // values, so the backends' last-digit LU rounding can shift reported
  // delays at femtosecond scale. Compare the physical quantities at
  // tolerances far below anything meaningful instead.
  EXPECT_EQ(text_dense.empty(), text_sparse.empty());
  EXPECT_NEAR(rd->delay_noise(), rs->delay_noise(), 0.01 * ps);
  EXPECT_NEAR(rd->input_delay_noise(), rs->input_delay_noise(), 0.01 * ps);
  EXPECT_NEAR(rd->rth, rs->rth, 1e-4 * rd->rth);
  EXPECT_NEAR(rd->holding_r, rs->holding_r, 1e-4 * rd->holding_r);

  const Pwl& wd = rd->noiseless_sink;
  const Pwl& ws = rs->noiseless_sink;
  const double t0 = wd.times().front(), t1 = wd.t_end();
  // Both backends converge each Newton solve to the same residual
  // tolerance, not to machine epsilon; the chord iteration's stale-factor
  // path amplifies the backends' LU rounding differences into the low
  // nanovolts. Still ~6 orders below any physically meaningful voltage.
  for (int k = 0; k <= 200; ++k) {
    const double t = t0 + (t1 - t0) * k / 200.0;
    EXPECT_NEAR(wd.at(t), ws.at(t), 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// Golden agreement across a small random population (expensive: separate,
// smaller sweep).
class GoldenProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GoldenProperty, LinearFlowTracksGolden) {
  Rng rng(GetParam());
  const CoupledNet net = random_coupled_net(rng);
  SuperpositionEngine eng(net);
  DelayNoiseOptions opts;
  opts.method = AlignmentMethod::Exhaustive;
  opts.search.coarse_points = 21;
  opts.search.fine_points = 9;
  const DelayNoiseResult r = analyze_delay_noise(eng, opts);
  const GoldenResult g = golden_nonlinear(net, absolute_shifts(r));
  if (g.delay_noise() < 10 * ps) GTEST_SKIP() << "noise too small to compare";
  const double rel =
      std::abs(r.delay_noise() - g.delay_noise()) / g.delay_noise();
  EXPECT_LT(rel, 0.35) << "linear " << r.delay_noise() / ps << " ps vs golden "
                       << g.delay_noise() / ps << " ps";
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenProperty,
                         ::testing::Values(101u, 202u, 303u));

}  // namespace
}  // namespace dn
