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
// workers). Report a result with DelayNoiseReport::from(net, result).
#pragma once

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

  /// The (possibly shared) characterization cache: table lookups and
  /// counts.
  const std::shared_ptr<CharacterizationCache>& cache() const {
    return cache_;
  }

  const AnalyzerConfig& config() const { return config_; }

 private:
  AnalyzerConfig config_;
  std::shared_ptr<CharacterizationCache> cache_;
};

}  // namespace dn
