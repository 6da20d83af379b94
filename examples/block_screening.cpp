// Block-level flow: screen a population of extracted nets with the cheap
// moment-level estimate, then run the full paper analysis only on the
// worst offenders — the triage a production noise tool performs before
// spending simulation time.
//
// The triage is built into BatchAnalyzer: enabling BatchOptions::ladder
// makes the batch engine run the fidelity ladder's cheap tiers first (a
// closed-form Tier 0 bound, then the margined Tier 1 screening estimate)
// and skip the full analysis for every net whose bound falls below the
// violation threshold.
//
// Usage: block_screening [num_nets]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "clarinet/batch_analyzer.hpp"
#include "clarinet/fidelity_ladder.hpp"
#include "rcnet/random_nets.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace dn;
using namespace dn::units;

int main(int argc, char** argv) {
  const int n_nets = argc > 1 ? std::atoi(argv[1]) : 20;
  const double threshold = 100 * ps;

  Rng rng(90210);
  std::vector<CoupledNet> nets;
  for (int i = 0; i < n_nets; ++i) nets.push_back(random_coupled_net(rng));
  std::printf("block with %d coupled nets; pruning bounds below %.0f ps...\n\n",
              n_nets, threshold / ps);

  BatchOptions opts;
  opts.ladder.enabled = true;
  opts.ladder.dn_threshold = threshold;
  opts.top_k = 5;
  BatchAnalyzer engine(opts);
  const BatchResult res = engine.analyze(nets);

  // Report in severity order of the cheap estimate, worst first.
  const auto order = rank_by_severity(nets);

  Table tbl({"rank", "net", "est_noise_V", "est_dN_ps", "bound_ps",
             "full_dN_ps", "decided_by"});
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const std::size_t i = order[rank];
    const StatusOr<ScreeningEstimate> est = try_screen_net(nets[i]);
    const BatchNetResult& nr = res.nets[i];
    const bool analyzed = nr.outcome == AnalysisOutcome::kOk ||
                          nr.outcome == AnalysisOutcome::kDegraded;
    tbl.add_row({Table::fmt(static_cast<double>(rank + 1)),
                 Table::fmt(static_cast<double>(i)),
                 est.ok() ? Table::fmt(est->vn_est, 4) : "?",
                 est.ok() ? Table::fmt(est->dn_est / ps, 4) : "?",
                 Table::fmt(nr.dn_bound / ps, 4),
                 analyzed ? Table::fmt(nr.result.delay_noise() / ps, 4) : "-",
                 fidelity_tier_name(nr.decided_by)});
  }
  tbl.print(std::cout);

  std::printf("\nanalyzed %zu of %d nets in full "
              "(%zu alignment tables characterized and cached);\n"
              "the remaining %zu were pruned by the ladder's cheap tiers.\n",
              res.stats.analyzed, n_nets, engine.cache()->tables_cached(),
              res.stats.pruned());
  return 0;
}
