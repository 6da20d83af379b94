// Fidelity ladder (clarinet/fidelity_ladder.*).
#include "clarinet/fidelity_ladder.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "clarinet/batch_analyzer.hpp"
#include "core/delay_noise.hpp"
#include "core/superposition.hpp"
#include "rcnet/random_nets.hpp"
#include "util/metrics.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

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
