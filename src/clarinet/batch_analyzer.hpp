// BatchAnalyzer: the full-chip delay-noise engine.
//
// The paper's pitch is that linear-model noise analysis is cheap enough
// to run on EVERY coupled net of a chip. This engine delivers that: a
// vector of CoupledNets fans out across a worker pool, every worker runs
// the complete per-net flow (Ceff/Thevenin characterization, Rtr
// iteration, composite pulse, worst-case alignment), and all workers
// share one CharacterizationCache so each receiver condition is
// table-characterized exactly once per run, no matter how many instances
// or threads touch it.
//
// Guarantees:
//   - Determinism: per-net results are bit-identical regardless of the
//     number of jobs. Each net's analysis depends only on the net and the
//     (deterministically characterized) shared tables; results land in
//     input order, and worst-K ranking ties break on net index.
//   - Isolation: a net that fails (malformed, solver blow-up) records its
//     Status and the run continues — one bad extraction cannot kill a
//     chip-level sweep.
//   - One pass per net: at most one triage verdict (pruned at Tier 0/1,
//     or analyze), then exactly one analysis attempt. Every per-net
//     failure is deterministic, so a second attempt would fail the same
//     way.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "clarinet/analyzer.hpp"
#include "clarinet/fidelity_ladder.hpp"
#include "util/thread_pool.hpp"

namespace dn {

struct BatchOptions {
  // The embedded AnalyzerConfig is the ONE source of truth for
  // engine/analysis/table options — batch adds only batch-level knobs.
  AnalyzerConfig analyzer{};
  int jobs = 0;    // Worker count; 0 = one per hardware thread.
  int top_k = 10;  // Size of the worst-nets ranking.
  /// Pre-analysis triage (clarinet/fidelity_ladder.hpp): when enabled,
  /// Tier 0/1 prune quiet nets with recorded bounds and Tier 2 runs the
  /// full flow for survivors. Disabled analyzes every net.
  FidelityLadderOptions ladder{};

  /// Wall-clock budget for the whole batch [ms]; <= 0 = unlimited. Every
  /// worker installs the shared deadline: nets in flight when it expires
  /// record kDeadlineExceeded (their step loops poll it), and nets not
  /// yet started fail fast without running. A run with a deadline is NOT
  /// byte-deterministic — which nets complete depends on wall clock.
  double deadline_ms = -1.0;
};

/// How one net's analysis concluded.
enum class AnalysisOutcome {
  kOk = 0,    // Clean analysis, no ladder steps.
  kDegraded,  // Analyzed, but at least one degradation rung was taken.
  kFailed,    // No result; BatchNetResult::status explains.
  kScreened,  // Skipped: pruned by a cheap fidelity-ladder tier.
};

/// Outcome for one net of the batch (slot `index` of the input vector).
struct BatchNetResult {
  std::size_t index = 0;
  std::string name;
  Status status;             // OK unless outcome == kFailed.
  /// Valid iff outcome is kOk or kDegraded; the resident server's stored
  /// slots reset it and keep the report alone.
  DelayNoiseResult result;
  DelayNoiseReport report;   // Valid iff outcome is kOk or kDegraded.
  AnalysisOutcome outcome = AnalysisOutcome::kOk;

  // Fidelity provenance (meaningful only when BatchOptions::ladder is
  // enabled): the tier that decided this net and the tightest cheap-tier
  // delay-noise upper bound [s] (bounds any violation a prune could
  // miss).
  FidelityTier decided_by = FidelityTier::kTier2;
  double dn_bound = 0.0;
};

struct BatchStats {
  std::size_t total = 0;
  std::size_t analyzed = 0;   // Includes degraded nets: they have results.
  std::size_t failed = 0;
  std::size_t degraded = 0;   // Subset of `analyzed`.
  int jobs = 1;
  double elapsed_s = 0.0;
  double nets_per_s = 0.0;
  std::size_t tables_cached = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  // Fidelity-ladder figures (all zero when the ladder is off; `ladder`
  // gates the tier rendering so ladder-off output carries none of it).
  bool ladder = false;
  std::size_t tier0_pruned = 0;
  std::size_t tier1_pruned = 0;
  std::size_t tier2_analyzed = 0;  // Nets that reached the full flow.
  /// Largest delay-noise upper bound among pruned nets [s]: no violation
  /// bigger than this can have been missed by pruning.
  double max_pruned_bound = 0.0;
  /// Nets the ladder's cheap tiers pruned (outcome kScreened).
  std::size_t pruned() const { return tier0_pruned + tier1_pruned; }
  double cache_hit_rate() const {
    const double n = static_cast<double>(cache_hits + cache_misses);
    return n > 0 ? static_cast<double>(cache_hits) / n : 0.0;
  }
};

struct BatchResult {
  std::vector<BatchNetResult> nets;  // Input order — deterministic.
  std::vector<std::size_t> worst;    // Worst-K indices, most severe first.
  BatchStats stats;

  /// Deterministic rendering (identical across job counts): per-net
  /// one-liners plus the worst-K table. No timing figures.
  void write_text(std::ostream& os) const;
  std::string to_text() const;

  /// Deterministic JSON: {"nets":[...], "worst":[...], "failed":N};
  /// write_json/to_json render to_json_value().
  json::Value to_json_value() const;
  void write_json(std::ostream& os) const;
  std::string to_json() const;

  /// Throughput/cache summary (NOT deterministic: contains wall-clock
  /// figures; keep it on stderr so batch stdout stays byte-stable).
  std::string stats_text() const;
};

/// Recomputes `out.worst` and every outcome-derived stats field (counts,
/// tier tallies, max pruned bound, failed) from `out.nets`, reading only
/// each net's report and outcome (never `result`).
/// Timing/cache/jobs figures are left to the caller. Shared by
/// BatchAnalyzer::analyze and the resident server's stored slots so the
/// two rankings can never drift.
void finalize_batch_result(BatchResult& out, int top_k, bool ladder_enabled);

class BatchAnalyzer {
 public:
  explicit BatchAnalyzer(BatchOptions opts = {});

  /// Shares `cache` (must be non-null) instead of building a private one
  /// — the resident server keeps one cache across every request so
  /// tables characterized for request N are hits for request N+1.
  BatchAnalyzer(BatchOptions opts,
                std::shared_ptr<CharacterizationCache> cache);

  /// Detaches the characterization pool from the (possibly shared)
  /// cache before the pool dies with this analyzer.
  ~BatchAnalyzer();

  /// Analyzes every net; `names[i]` labels net i (defaults to "net<i>").
  BatchResult analyze(const std::vector<CoupledNet>& nets,
                      const std::vector<std::string>& names = {});

  const std::shared_ptr<CharacterizationCache>& cache() const {
    return analyzer_.cache();
  }
  const BatchOptions& options() const { return opts_; }
  int jobs() const { return jobs_; }

 private:
  void attach_char_pool();

  BatchOptions opts_;
  int jobs_ = 1;
  NoiseAnalyzer analyzer_;  // Const-callable from all workers.
  ThreadPool pool_;
  // Dedicated pool for intra-table characterization parallelism (the 8
  // alignment-search corners of a cold table). It must be separate from
  // pool_: ThreadPool runs one batch at a time, so a net worker fanning
  // corners back into its own pool would deadlock. With more workers
  // than cold tables this is what makes --jobs pay off; absent when
  // jobs <= 1 (sequential analyzers keep the classic path).
  std::optional<ThreadPool> char_pool_;
};

}  // namespace dn
