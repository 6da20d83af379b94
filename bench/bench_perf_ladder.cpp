// bench_perf_ladder — fidelity-ladder throughput and conservatism gate.
//
// A chip-realistic population (most nets quiet, a loud minority) is run
// through the batch engine twice: ladder off (the classic analyze-
// everything flow) and ladder on (Tier 0 moment bound -> Tier 1 margined
// estimate -> Tier 2 full verification for survivors). Checks:
//   - ZERO missed violations: no net the ladder prunes may show a
//     delay noise at or above the threshold in the ladder-off run (the
//     conservatism guarantee of DESIGN.md §13, measured end to end),
//   - the pruning rate is high enough to matter (>= 60% of quiet-heavy
//     populations), and
//   - end-to-end throughput improves >= 5x on >= 500 nets.
//
// Emits BENCH_perf_ladder.json with per-tier survivor counts, the
// measured speedup, and the missed-violation count (always 0 on a pass).
//
//   bench_perf_ladder [--nets N] [--seed S] [--jobs J]
//                     [--threshold-ps T] [--out BENCH_perf_ladder.json]
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "clarinet/batch_analyzer.hpp"

using namespace dn;
using namespace dn::units;

namespace {

AnalyzerConfig bench_config() {
  // The coarse-but-representative search grid also used by the analyzer
  // tests: full flow, ~6x faster per net than the default grid.
  AnalyzerConfig c;
  c.table_spec.search.coarse_points = 17;
  c.table_spec.search.fine_points = 9;
  c.table_spec.search.dt = 2 * ps;
  c.analysis.search.coarse_points = 17;
  c.analysis.search.fine_points = 9;
  c.analysis.search.dt = 2 * ps;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const int n_nets = dn::bench::int_flag(argc, argv, "--nets", 500);
  const int seed = dn::bench::int_flag(argc, argv, "--seed", 1);
  const int jobs = dn::bench::int_flag(argc, argv, "--jobs", 0);
  const double threshold_ps =
      dn::bench::int_flag(argc, argv, "--threshold-ps", 20);
  const std::string out_path =
      dn::bench::str_flag(argc, argv, "--out", "BENCH_perf_ladder.json");

  dn::bench::print_header(
      "perf: tiered multi-fidelity screening ladder",
      "zero missed violations; >= 5x end-to-end speedup on a quiet-heavy "
      "population");

  // Chip-realistic mix: ~85% of coupled nets are electrically quiet
  // (coupling two decades down); the loud minority carries the real
  // violations. Deterministic given the seed.
  Rng rng(static_cast<std::uint64_t>(seed));
  std::vector<CoupledNet> nets;
  nets.reserve(static_cast<std::size_t>(n_nets));
  int quiet = 0;
  for (int i = 0; i < n_nets; ++i) {
    CoupledNet net = random_coupled_net(rng);
    if (i % 20 < 17) {
      for (auto& cc : net.couplings) cc.c *= 0.01;
      ++quiet;
    }
    nets.push_back(std::move(net));
  }
  std::printf("workload: %d random coupled nets (%d quiet), seed %d\n\n",
              n_nets, quiet, seed);

  BatchOptions off;
  off.analyzer = bench_config();
  off.jobs = jobs;
  const BatchResult r_off = BatchAnalyzer(off).analyze(nets);

  BatchOptions on = off;
  on.ladder.enabled = true;
  on.ladder.dn_threshold = threshold_ps * ps;
  const BatchResult r_on = BatchAnalyzer(on).analyze(nets);

  const BatchStats& so = r_off.stats;
  const BatchStats& sl = r_on.stats;
  std::printf("%-12s %10s %10s %10s\n", "", "time_s", "nets/s", "analyzed");
  std::printf("%-12s %10.2f %10.1f %10zu\n", "ladder off", so.elapsed_s,
              so.nets_per_s, so.analyzed);
  std::printf("%-12s %10.2f %10.1f %10zu\n\n", "ladder on", sl.elapsed_s,
              sl.nets_per_s, sl.analyzed);
  std::printf("tiers: tier0 pruned %zu, tier1 pruned %zu, tier2 analyzed "
              "%zu; max pruned bound %.2f ps\n",
              sl.tier0_pruned, sl.tier1_pruned, sl.tier2_analyzed,
              sl.max_pruned_bound / ps);

  // Conservatism, measured end to end: every pruned net's ladder-off
  // delay noise must sit below the threshold.
  int missed = 0;
  for (std::size_t i = 0; i < r_on.nets.size(); ++i) {
    if (r_on.nets[i].outcome != AnalysisOutcome::kScreened) continue;
    if (!r_off.nets[i].status.ok()) continue;  // No reference to compare.
    if (r_off.nets[i].result.delay_noise() >= threshold_ps * ps) {
      ++missed;
      std::printf("MISSED: net %zu pruned at %s (bound %.2f ps) but "
                  "full analysis found %.2f ps\n",
                  i, fidelity_tier_name(r_on.nets[i].decided_by),
                  r_on.nets[i].dn_bound / ps,
                  r_off.nets[i].result.delay_noise() / ps);
    }
  }
  const std::size_t pruned = sl.tier0_pruned + sl.tier1_pruned;
  const double prune_rate =
      n_nets > 0 ? static_cast<double>(pruned) / n_nets : 0.0;
  const double speedup =
      sl.elapsed_s > 0 ? so.elapsed_s / sl.elapsed_s : 0.0;
  std::printf("pruning rate %.1f%%, speedup %.2fx\n\n", 100.0 * prune_rate,
              speedup);

  bool ok = dn::bench::check("zero missed violations among pruned nets",
                             missed == 0);
  ok = dn::bench::check("pruning rate >= 60%", prune_rate >= 0.6) && ok;
  char label[96];
  std::snprintf(label, sizeof label,
                "end-to-end speedup >= 5x (measured %.2fx)", speedup);
  ok = dn::bench::check(label, speedup >= 5.0) && ok;

  dn::bench::write_json_artifact(out_path, [&](std::ostream& jf) {
    jf << "{\"bench\":\"perf_ladder\"," << dn::bench::json_host_fields()
       << ",\"nets\":" << n_nets
       << ",\"seed\":" << seed << ",\"threshold_ps\":" << threshold_ps
       << ",\"tier0_pruned\":" << sl.tier0_pruned
       << ",\"tier1_pruned\":" << sl.tier1_pruned
       << ",\"tier2_analyzed\":" << sl.tier2_analyzed
       << ",\"max_pruned_bound_ps\":" << sl.max_pruned_bound / ps
       << ",\"prune_rate\":" << prune_rate
       << ",\"missed_violations\":" << missed
       << ",\"time_off_s\":" << so.elapsed_s
       << ",\"time_on_s\":" << sl.elapsed_s << ",\"speedup\":" << speedup
       << "}\n";
  });
  return ok ? 0 : 1;
}
