// Fidelity ladder (clarinet/fidelity_ladder.*), alignment scan domain
// (core/alignment.hpp ScanDomain), and the timing-window / correlation
// aggressor pruning threaded through core/delay_noise.*.
#include "clarinet/fidelity_ladder.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "clarinet/batch_analyzer.hpp"
#include "core/alignment.hpp"
#include "core/delay_noise.hpp"
#include "core/superposition.hpp"
#include "rcnet/random_nets.hpp"
#include "util/metrics.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

// ---------------------------------------------------------------------------
// ScanDomain
// ---------------------------------------------------------------------------

TEST(ScanDomain, UnconstrainedSamplesExactLinspace) {
  const ScanDomain d;
  EXPECT_TRUE(d.unconstrained());
  EXPECT_FALSE(d.empty());
  const auto pts = d.sample(1.0, 3.0, 5);
  ASSERT_EQ(pts.size(), 5u);
  // Bit-exact linspace: the unpruned scan must reproduce the classic
  // search byte-for-byte.
  const double step = (3.0 - 1.0) / 4.0;
  for (int i = 0; i < 5; ++i) EXPECT_EQ(pts[static_cast<std::size_t>(i)], 1.0 + step * i);
}

TEST(ScanDomain, SingleCoveringIntervalSamplesExactLinspace) {
  ScanDomain d;
  d.intersect(0.0, 10.0);  // Covers the whole requested span.
  const auto pts = d.sample(1.0, 3.0, 5);
  const auto ref = ScanDomain().sample(1.0, 3.0, 5);
  ASSERT_EQ(pts.size(), ref.size());
  for (std::size_t i = 0; i < pts.size(); ++i) EXPECT_EQ(pts[i], ref[i]);
}

TEST(ScanDomain, IntersectAndContains) {
  ScanDomain d;
  d.intersect(0.0, 10.0);
  d.intersect(5.0, 20.0);
  EXPECT_FALSE(d.unconstrained());
  EXPECT_TRUE(d.contains(7.0));
  EXPECT_FALSE(d.contains(4.0));
  EXPECT_FALSE(d.contains(11.0));
  EXPECT_EQ(d.lo(), 5.0);
  EXPECT_EQ(d.hi(), 10.0);
  d.intersect(20.0, 30.0);  // Disjoint from [5,10]: nothing left.
  EXPECT_TRUE(d.empty());
}

TEST(ScanDomain, ExcludeSplitsInterval) {
  ScanDomain d;
  d.intersect(0.0, 10.0);
  d.exclude(4.0, 6.0);
  EXPECT_TRUE(d.contains(4.0));   // Exclusion is the OPEN span.
  EXPECT_TRUE(d.contains(6.0));
  EXPECT_FALSE(d.contains(5.0));
  ASSERT_EQ(d.intervals().size(), 2u);
  // Samples land only in feasible parts.
  for (const double t : d.sample(0.0, 10.0, 11))
    EXPECT_TRUE(d.contains(t)) << t;
}

TEST(ScanDomain, ClampFindsNearestFeasiblePoint) {
  ScanDomain d;
  d.intersect(0.0, 2.0);
  d.intersect(1.0, 5.0);  // [1, 2].
  EXPECT_EQ(d.clamp(1.5), 1.5);
  EXPECT_EQ(d.clamp(-3.0), 1.0);
  EXPECT_EQ(d.clamp(9.0), 2.0);
}

TEST(ScanDomain, EmptySpanYieldsNoSamples) {
  ScanDomain d;
  d.intersect(100.0, 200.0);
  EXPECT_TRUE(d.sample(0.0, 10.0, 7).empty());
}

// ---------------------------------------------------------------------------
// Tier-0 bound + ladder decisions
// ---------------------------------------------------------------------------

DelayNoiseOptions coarse_options() {
  DelayNoiseOptions opts;
  opts.method = AlignmentMethod::Exhaustive;
  opts.search.coarse_points = 17;
  opts.search.fine_points = 9;
  opts.search.dt = 2 * ps;
  return opts;
}

TEST(FidelityLadder, Tier0BoundIsConservative) {
  // The whole ladder rests on this: the closed-form Tier-0 bound must
  // dominate the full-flow delay noise. Sweep a seeded population; any
  // violation here means a prunable net could hide a real violation.
  Rng rng(20260809);
  for (int i = 0; i < 12; ++i) {
    const CoupledNet net = random_coupled_net(rng);
    const StatusOr<NetMoments> moments = try_net_moments(net);
    ASSERT_TRUE(moments.ok()) << moments.status().to_string();
    const Tier0Bound bound = tier0_bound(*moments);
    SuperpositionEngine eng(net);
    const double dn = analyze_delay_noise(eng, coarse_options()).delay_noise();
    EXPECT_GE(bound.dn_bound, dn) << "net " << i;
    EXPECT_GT(bound.vn_bound, 0.0);
  }
}

TEST(FidelityLadder, MalformedNetIsRejected) {
  CoupledNet bad = example_coupled_net(1);
  bad.couplings[0].aggressor = 7;
  EXPECT_FALSE(try_net_moments(bad).ok());
  const FidelityLadder ladder(FidelityLadderOptions{});
  EXPECT_FALSE(ladder.evaluate(bad).ok());
}

TEST(FidelityLadder, NoPrunedNetExceedsThreshold) {
  // Conservatism property: across a random suite, every net the cheap
  // tiers prune must verify quiet at Tier 2. A failure here means the
  // safety factors need loosening (fidelity_ladder.cpp), not the test.
  FidelityLadderOptions lopts;
  lopts.enabled = true;
  lopts.dn_threshold = 20 * ps;
  const FidelityLadder ladder(lopts);

  // Half the suite is quiet (coupling scaled down two decades) so the
  // prune path actually fires; the loud half exercises the pass path.
  Rng rng(777);
  std::vector<CoupledNet> suite;
  for (int i = 0; i < 16; ++i) {
    CoupledNet net = random_coupled_net(rng);
    if (i % 2 == 0)
      for (auto& cc : net.couplings) cc.c *= 0.01;
    suite.push_back(std::move(net));
  }

  int pruned = 0;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const CoupledNet& net = suite[i];
    const StatusOr<LadderDecision> dec = ladder.evaluate(net);
    ASSERT_TRUE(dec.ok()) << dec.status().to_string();
    if (!dec->pruned) continue;
    ++pruned;
    EXPECT_LT(dec->dn_bound, lopts.dn_threshold);
    SuperpositionEngine eng(net);
    const double dn = analyze_delay_noise(eng, coarse_options()).delay_noise();
    EXPECT_LT(dn, lopts.dn_threshold)
        << "net " << i << " pruned at "
        << fidelity_tier_name(dec->decided_by) << " with bound "
        << dec->dn_bound << " but full analysis found " << dn;
  }
  EXPECT_GT(pruned, 0) << "threshold prunes nothing: test has no teeth";
}

TEST(FidelityLadder, TierProvenanceAndCapping) {
  const CoupledNet net = example_coupled_net(1);

  obs::set_metrics_enabled(true);
  const obs::Counter& tier1_evals =
      obs::metrics().counter("ladder.tier1_evals");
  FidelityLadderOptions lopts;
  lopts.enabled = true;
  lopts.dn_threshold = 1e9;  // Everything prunes at Tier 0.
  std::uint64_t before = tier1_evals.value();
  const StatusOr<LadderDecision> t0 = FidelityLadder(lopts).evaluate(net);
  ASSERT_TRUE(t0.ok());
  EXPECT_TRUE(t0->pruned);
  EXPECT_EQ(t0->decided_by, FidelityTier::kTier0);
  // Tier 1 never runs once Tier 0 decides.
  EXPECT_EQ(tier1_evals.value(), before);

  lopts.dn_threshold = 0.0;  // Nothing prunes.
  before = tier1_evals.value();
  const StatusOr<LadderDecision> t2 = FidelityLadder(lopts).evaluate(net);
  ASSERT_TRUE(t2.ok());
  EXPECT_FALSE(t2->pruned);
  EXPECT_EQ(t2->decided_by, FidelityTier::kTier2);
  EXPECT_EQ(tier1_evals.value(), before + 1);
  obs::set_metrics_enabled(false);
  // The recorded bound is the tightest cheap-tier bound.
  const StatusOr<NetMoments> m = try_net_moments(net);
  ASSERT_TRUE(m.ok());
  EXPECT_LE(t2->dn_bound, tier0_bound(*m).dn_bound);
}

// ---------------------------------------------------------------------------
// Window / correlation pruning in the core flow
// ---------------------------------------------------------------------------

TEST(WindowPruning, AllCoveringWindowsChangeNothing) {
  // Acceptance property: a window that excludes nothing must leave the
  // scan untouched — bit-identical results, not merely close.
  const CoupledNet plain = example_coupled_net(2);
  CoupledNet windowed = plain;
  for (auto& a : windowed.aggressors) {
    a.window_early = -1.0;  // The whole engine time frame and then some.
    a.window_late = 1.0;
  }
  ASSERT_TRUE(windowed.aggressors[0].has_window());

  SuperpositionEngine e0(plain), e1(windowed);
  const DelayNoiseOptions opts = coarse_options();
  const DelayNoiseResult r0 = analyze_delay_noise(e0, opts);
  const DelayNoiseResult r1 = analyze_delay_noise(e1, opts);
  EXPECT_EQ(r0.noisy_t50, r1.noisy_t50);
  EXPECT_EQ(r0.nominal_t50, r1.nominal_t50);
  EXPECT_EQ(r0.alignment.t_peak, r1.alignment.t_peak);
  EXPECT_EQ(r1.aggressors_pruned_window, 0);
  EXPECT_EQ(r1.aggressors_pruned_exclusion, 0);
}

TEST(WindowPruning, DisjointWindowDropsAggressor) {
  CoupledNet net = example_coupled_net(2);
  // Aggressor 0 switches near the victim; aggressor 1 only long after
  // the transition is over — they can never co-switch.
  net.aggressors[0].window_early = 0.0;
  net.aggressors[0].window_late = 600 * ps;
  net.aggressors[1].window_early = 100 * ns;
  net.aggressors[1].window_late = 101 * ns;

  SuperpositionEngine eng(net);
  const DelayNoiseResult r = analyze_delay_noise(eng, coarse_options());
  EXPECT_EQ(r.aggressors_pruned_window, 1);

  // Dropping an aggressor can only reduce the worst case.
  CoupledNet plain = example_coupled_net(2);
  SuperpositionEngine e0(plain);
  const DelayNoiseResult r0 = analyze_delay_noise(e0, coarse_options());
  EXPECT_LE(r.delay_noise(), r0.delay_noise() + 1e-15);
}

TEST(WindowPruning, ExclusionKeepsStrongerAggressor) {
  CoupledNet net = example_coupled_net(2);
  // Logic correlation: aggressors 0 and 1 can never switch in the same
  // cycle. The larger coupled charge wins deterministically.
  net.exclusions.push_back({0, 1});
  net.validate();

  SuperpositionEngine eng(net);
  const DelayNoiseResult r = analyze_delay_noise(eng, coarse_options());
  EXPECT_EQ(r.aggressors_pruned_exclusion, 1);

  CoupledNet plain = example_coupled_net(2);
  SuperpositionEngine e0(plain);
  const DelayNoiseResult r0 = analyze_delay_noise(e0, coarse_options());
  EXPECT_LE(r.delay_noise(), r0.delay_noise() + 1e-15);
  EXPECT_GT(r.delay_noise(), 0.0);
}

TEST(WindowPruning, NarrowingWindowConfinesThePeak) {
  // An aggressor window that keeps the aggressor but admits only
  // alignments 150-300 ps earlier than the unconstrained worst case: the
  // exhaustive peak must land in the mapped domain, and the noise cannot
  // exceed the unconstrained worst case.
  const CoupledNet plain = example_coupled_net(1);
  SuperpositionEngine e0(plain);
  const DelayNoiseOptions opts = coarse_options();
  const DelayNoiseResult r0 = analyze_delay_noise(e0, opts);
  const double t_ref = e0.options().t_ref;
  const double start = t_ref + absolute_shifts(r0)[0];  // Aggressor input.

  CoupledNet net = plain;
  net.aggressors[0].window_early = start - 300 * ps;
  net.aggressors[0].window_late = start - 150 * ps;
  SuperpositionEngine eng(net);
  const DelayNoiseResult r = analyze_delay_noise(eng, opts);
  EXPECT_EQ(r.aggressors_pruned_window, 0);

  // The final composite's mapping of the window onto peak times
  // (core/delay_noise.cpp, window_domain).
  const double base =
      r.composite.params.t_peak - r.composite.shifts[0] - t_ref;
  const double lo = base + net.aggressors[0].window_early;
  const double hi = base + net.aggressors[0].window_late;
  EXPECT_GE(r.alignment.t_peak, lo - 1e-15);
  EXPECT_LE(r.alignment.t_peak, hi + 1e-15);
  EXPECT_LT(hi, r0.alignment.t_peak);  // The free worst case is excluded.
  EXPECT_LE(r.delay_noise(), r0.delay_noise());
}

TEST(WindowPruning, ValidateRejectsBadExclusions) {
  CoupledNet net = example_coupled_net(2);
  net.exclusions.push_back({0, 5});
  EXPECT_THROW(net.validate(), std::invalid_argument);
  net.exclusions.back() = {1, 1};
  EXPECT_THROW(net.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Batch integration
// ---------------------------------------------------------------------------

AnalyzerConfig fast_config() {
  AnalyzerConfig c;
  c.table_spec.search.coarse_points = 17;
  c.table_spec.search.fine_points = 9;
  c.table_spec.search.dt = 2 * ps;
  c.analysis.search.coarse_points = 17;
  c.analysis.search.fine_points = 9;
  c.analysis.search.dt = 2 * ps;
  return c;
}

TEST(FidelityLadderBatch, TierTalliesAreConsistent) {
  Rng rng(99);
  std::vector<CoupledNet> nets;
  for (int i = 0; i < 8; ++i) nets.push_back(random_coupled_net(rng));

  BatchOptions opts;
  opts.analyzer = fast_config();
  opts.jobs = 2;
  opts.ladder.enabled = true;
  opts.ladder.dn_threshold = 20 * ps;
  BatchAnalyzer engine(opts);
  const BatchResult r = engine.analyze(nets);

  const BatchStats& st = r.stats;
  EXPECT_TRUE(st.ladder);
  std::size_t screened = 0;
  for (const auto& nr : r.nets) {
    if (nr.outcome == AnalysisOutcome::kScreened) {
      ++screened;
      EXPECT_NE(nr.decided_by, FidelityTier::kTier2);
      EXPECT_GT(nr.dn_bound, 0.0);
      EXPECT_LT(nr.dn_bound, opts.ladder.dn_threshold);
    } else if (nr.status.ok()) {
      EXPECT_EQ(nr.report.fidelity_tier, "tier2");
    }
  }
  EXPECT_EQ(st.tier0_pruned + st.tier1_pruned, screened);
  EXPECT_EQ(st.tier2_analyzed, st.analyzed);
  EXPECT_EQ(st.analyzed + screened + st.failed, st.total);
  if (screened) {
    EXPECT_GT(st.max_pruned_bound, 0.0);
  }

  // Determinism across job counts, ladder on.
  BatchOptions o1 = opts;
  o1.jobs = 1;
  const BatchResult r1 = BatchAnalyzer(o1).analyze(nets);
  EXPECT_EQ(r.to_text(), r1.to_text());
  EXPECT_EQ(r.to_json(), r1.to_json());
  // The JSON envelope carries the ladder provenance.
  EXPECT_NE(r.to_json().find("\"ladder\":{"), std::string::npos);
}

TEST(FidelityLadderBatch, LadderOffMatchesLegacyScreening) {
  Rng rng(4);
  std::vector<CoupledNet> nets;
  for (int i = 0; i < 4; ++i) nets.push_back(random_coupled_net(rng));

  BatchOptions legacy;
  legacy.analyzer = fast_config();
  const BatchResult r_legacy = BatchAnalyzer(legacy).analyze(nets);

  BatchOptions off = legacy;
  off.ladder = FidelityLadderOptions{};  // enabled = false.
  const BatchResult r_off = BatchAnalyzer(off).analyze(nets);
  EXPECT_EQ(r_legacy.to_text(), r_off.to_text());
  EXPECT_EQ(r_legacy.to_json(), r_off.to_json());
  EXPECT_EQ(r_off.to_json().find("\"ladder\""), std::string::npos);
}

}  // namespace
}  // namespace dn
