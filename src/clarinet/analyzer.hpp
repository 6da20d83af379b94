// NoiseAnalyzer: the one-call "ClariNet" front end.
//
// Wraps the full paper flow behind a single analyze() entry point:
// driver characterization, transient-holding-resistance iteration, and
// worst-case alignment via per-receiver-type 8-point tables that are
// characterized on first use and cached — mirroring how the industrial
// tool pre-characterizes each library gate once and reuses the table for
// every instantiation.
//
// Concurrency contract: analyze()/try_analyze() are const and safe to
// call from any number of threads simultaneously. All mutable state lives
// in a CharacterizationCache, which is internally synchronized and may be
// shared between analyzers (BatchAnalyzer shares one cache across all its
// workers). Table pointers returned by table_for() are stable — never
// invalidated by later characterizations.
#pragma once

#include <iosfwd>
#include <memory>

#include "clarinet/characterization_cache.hpp"
#include "clarinet/report.hpp"
#include "core/delay_noise.hpp"
#include "util/status.hpp"

namespace dn {

struct AnalyzerConfig {
  SuperpositionOptions engine{};
  /// analysis.table is managed internally: fetched from the cache for
  /// the Predicted method only.
  DelayNoiseOptions analysis{.method = AlignmentMethod::Predicted};
  AlignmentTableSpec table_spec{};
};

class NoiseAnalyzer {
 public:
  /// Private cache, characterized with config.table_spec.
  explicit NoiseAnalyzer(AnalyzerConfig config = {});

  /// Shares `cache` (must be non-null); config.table_spec is ignored in
  /// favor of the cache's spec.
  NoiseAnalyzer(AnalyzerConfig config,
                std::shared_ptr<CharacterizationCache> cache);

  /// Full delay-noise analysis of one coupled net. Never throws for
  /// analysis-level failures: malformed nets come back as
  /// kInvalidArgument, solver/characterization failures as kInternal.
  StatusOr<DelayNoiseResult> try_analyze(const CoupledNet& net) const;

  /// The cached 8-point table for a receiver type/size and victim
  /// direction (characterizing it on first use). The pointer is stable
  /// for the cache's lifetime.
  const AlignmentTable* table_for(const GateParams& receiver,
                                  bool victim_rising) const;

  /// Number of distinct receiver conditions characterized so far.
  std::size_t tables_cached() const { return cache_->tables_cached(); }

  /// The shared characterization cache.
  const std::shared_ptr<CharacterizationCache>& cache() const {
    return cache_;
  }

  const AnalyzerConfig& config() const { return config_; }

  /// Structured per-net report.
  DelayNoiseReport report(const CoupledNet& net, const DelayNoiseResult& r,
                          std::string name = "") const;

  /// Legacy human-readable report (renders report().to_text()).
  void print_report(std::ostream& os, const CoupledNet& net,
                    const DelayNoiseResult& r) const;

 private:
  AnalyzerConfig config_;
  std::shared_ptr<CharacterizationCache> cache_;
};

}  // namespace dn
