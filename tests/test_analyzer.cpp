// Top-level NoiseAnalyzer tests (clarinet/analyzer.*).
#include "clarinet/analyzer.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "rcnet/random_nets.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

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

TEST(NoiseAnalyzer, AnalyzeProducesDelayNoise) {
  NoiseAnalyzer analyzer(fast_config());
  const DelayNoiseResult r = analyzer.try_analyze(example_coupled_net(1)).value();
  EXPECT_GT(r.delay_noise(), 10 * ps);
  EXPECT_GT(r.holding_r, 0.0);
}

TEST(NoiseAnalyzer, TablesAreCachedPerReceiverCondition) {
  NoiseAnalyzer analyzer(fast_config());
  const CoupledNet net = example_coupled_net(1);
  ASSERT_TRUE(analyzer.try_analyze(net).ok());
  EXPECT_EQ(analyzer.cache()->tables_cached(), 1u);
  // Same receiver/direction: no new table.
  ASSERT_TRUE(analyzer.try_analyze(net).ok());
  EXPECT_EQ(analyzer.cache()->tables_cached(), 1u);

  CoupledNet other = example_coupled_net(1);
  other.victim.receiver.size = 4.0;  // New receiver condition.
  ASSERT_TRUE(analyzer.try_analyze(other).ok());
  EXPECT_EQ(analyzer.cache()->tables_cached(), 2u);

  CoupledNet falling = example_coupled_net(1);
  falling.victim.output_rising = false;
  falling.aggressors[0].output_rising = true;
  ASSERT_TRUE(analyzer.try_analyze(falling).ok());
  EXPECT_EQ(analyzer.cache()->tables_cached(), 3u);
}

TEST(NoiseAnalyzer, ExhaustiveModeDominatesPrediction) {
  AnalyzerConfig pred_cfg = fast_config();
  NoiseAnalyzer pred(pred_cfg);
  AnalyzerConfig ex_cfg = fast_config();
  ex_cfg.analysis.method = AlignmentMethod::Exhaustive;
  NoiseAnalyzer ex(ex_cfg);
  const CoupledNet net = example_coupled_net(1);
  const double d_pred = pred.try_analyze(net).value().delay_noise();
  const double d_ex = ex.try_analyze(net).value().delay_noise();
  // The coarse-grid "exhaustive" search can be undercut by a few ps of
  // discretization; the prediction must not beat it by more than that.
  EXPECT_LE(d_pred, d_ex + 5 * ps);
  EXPECT_GT(d_pred, 0.6 * d_ex);
}

// A bare AnalyzerConfig runs whichever method it holds, the same as the
// engine-level flow; only the Predicted method fetches (and so
// characterizes) an alignment table.
TEST(NoiseAnalyzer, HonorsEveryAlignmentMethod) {
  const CoupledNet net = example_coupled_net(1);
  for (const AlignmentMethod m :
       {AlignmentMethod::Predicted, AlignmentMethod::Exhaustive,
        AlignmentMethod::ReceiverInputPeak}) {
    SCOPED_TRACE(alignment_method_name(m));
    AnalyzerConfig cfg = fast_config();
    cfg.analysis.method = m;
    const NoiseAnalyzer an(cfg);
    const StatusOr<DelayNoiseResult> r = an.try_analyze(net);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_TRUE(r->degradations.empty());
    EXPECT_EQ(an.cache()->tables_cached(), m == AlignmentMethod::Predicted ? 1u : 0u);
    if (m == AlignmentMethod::Predicted) continue;
    const SuperpositionEngine eng(net, cfg.engine);
    const DelayNoiseResult direct = analyze_delay_noise(eng, cfg.analysis);
    EXPECT_EQ(DelayNoiseReport::from(net, *r).to_json(),
              DelayNoiseReport::from(net, direct).to_json());
  }
}

TEST(NoiseAnalyzer, ReportMentionsKeyQuantities) {
  NoiseAnalyzer analyzer(fast_config());
  const CoupledNet net = example_coupled_net(1);
  const DelayNoiseResult r = analyzer.try_analyze(net).value();
  std::ostringstream os;
  DelayNoiseReport::from(net, r).to_text(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("delay-noise report"), std::string::npos);
  EXPECT_NE(text.find("transient holding R"), std::string::npos);
  EXPECT_NE(text.find("alignment"), std::string::npos);
  EXPECT_NE(text.find("INVX1"), std::string::npos);
}

// A weak victim driver cannot switch the driver table's heaviest loads
// within the reference sims' first 3 ns tail; the table fill lengthens
// the tail instead of failing every net that driver drives.
TEST(NoiseAnalyzer, WeakVictimDriversAnalyze) {
  NoiseAnalyzer analyzer(fast_config());
  for (const double size : {0.1, 0.2}) {
    CoupledNet net = example_coupled_net(1);
    net.victim.driver.size = size;
    const StatusOr<DelayNoiseResult> r = analyzer.try_analyze(net);
    ASSERT_TRUE(r.ok()) << size << ": " << r.status().to_string();
    EXPECT_GT(r->delay_noise(), 10 * ps) << size;
    EXPECT_LT(r->delay_noise(), 2 * ns) << size;
  }
}

TEST(NoiseAnalyzer, WorksAcrossRandomPopulation) {
  NoiseAnalyzer analyzer(fast_config());
  Rng rng(31415);
  for (int i = 0; i < 5; ++i) {
    const CoupledNet net = random_coupled_net(rng);
    const DelayNoiseResult r = analyzer.try_analyze(net).value();
    EXPECT_GE(r.delay_noise(), 0.0) << "net " << i;
    EXPECT_LT(r.delay_noise(), 2 * ns) << "net " << i;
  }
}

}  // namespace
}  // namespace dn
