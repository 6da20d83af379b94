// The benchmark's workloads. Each builds its inputs from the seed alone,
// prepares them untimed (the setup_s metric), measures the library's
// public entry points, checks the outputs, and returns one Outcome:
// end-to-end metrics, or per-layer metrics when Args::trace is set.
#pragma once

#include <memory>
#include <vector>

#include "clarinet/characterization_cache.hpp"
#include "common.hpp"
#include "core/delay_noise.hpp"

namespace perfbench {

/// batch_warm, batch_cold and bus_large.
Outcome run_batch_workload(const Args& args);
/// eco_serve.
Outcome run_eco_serve(const Args& args);

/// Setup repetitions per run; setup_s is their median.
int setup_repeats(const Args& args);

/// The first `n` nets of the default random population for `seed` (the
/// batch_warm population, and the accuracy-guard sample of every
/// workload).
std::vector<dn::CoupledNet> default_random_nets(std::uint64_t seed, int n);

/// Number of nets in the accuracy-guard sample.
int guard_size(const Args& args);

/// Characterizes every alignment table `nets` look up; false on failure.
bool fill_tables(dn::CharacterizationCache& cache,
                 const std::vector<dn::CoupledNet>& nets);

/// The accuracy guard, run outside every timed region: each flow result
/// (flow[i] for nets[i]) is replayed through golden_nonlinear at its own
/// aggressor alignment; nets whose golden delay noise is below 8 ps are
/// skipped (Fig 13), a failed flow result fails the run's checks. Adds
/// dn_err_pct_mean and dn_underest_ratio.
void add_accuracy_metrics(
    Outcome& out, const std::vector<dn::CoupledNet>& nets,
    const std::vector<dn::StatusOr<dn::DelayNoiseResult>>& flow,
    const dn::AnalysisConfig& cfg);

/// Flow results for the accuracy-guard sample through NoiseAnalyzer on a
/// prepared cache, in net order.
std::vector<dn::StatusOr<dn::DelayNoiseResult>> guard_flow(
    const std::vector<dn::CoupledNet>& nets, const dn::AnalysisConfig& cfg,
    std::shared_ptr<dn::CharacterizationCache> cache);

}  // namespace perfbench
