// Per-layer attribution for the traced run.
//
// Spans are recorded from the benchmark's side with dn::obs::TraceSpan
// around calls into each module's public API; program-internal counters
// are read from the dn::obs registry. Spans stay in the in-memory
// TraceRecorder until the run ends, then the trace is parsed back to
// compute each span's self time (its duration minus the part its direct
// children cover) and written out as Chrome/Perfetto JSON.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "clarinet/analyzer.hpp"
#include "common.hpp"

namespace perfbench {

/// NoiseAnalyzer::try_analyze (clarinet/analyzer.cpp) reproduced as its
/// public calls, each under a span: "ceff" (SuperpositionEngine
/// construction: compute_ceff + fit_thevenin for every driver),
/// "core.superposition" (victim_transition() and aggressor_noise(k, Rth)
/// on the fresh engine), "core.table" (try_table_for) and
/// "core.align_rtr" (analyze_delay_noise on the primed engine), all inside
/// one "net" span. Same derived options, same order, same result, for
/// configurations that use prediction tables (the default).
dn::StatusOr<dn::DelayNoiseResult> decomposed_analyze(
    const dn::AnalyzerConfig& cfg, dn::CharacterizationCache& cache,
    const dn::CoupledNet& net);

/// True when two results of one net render byte-identical reports and
/// carry bit-identical delays and holding resistances.
bool same_result(const dn::CoupledNet& net, const dn::DelayNoiseResult& a,
                 const dn::DelayNoiseResult& b);

/// One completed span with its self time, parent resolved per thread.
struct Span {
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  double self_us = 0.0;
  int tid = 0;
  int parent = -1;  // Index into the span vector; -1 for roots.
};

/// Every span recorded so far, with parents and self times resolved.
std::vector<Span> collect_spans();

struct SpanTotals {
  double incl_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SpanTotals> totals_by_name(const std::vector<Span>& s);

/// Empties the dn::obs registry and the trace recorder.
void reset_observations();
/// Turns dn::obs metrics and tracing on or off; recorded data stays.
void set_observing(bool on);

/// Share of the batch engine's executor time left idle: 1 - the summed
/// "batch.net" spans over executors x the summed "batch.run" spans.
double batch_idle_share(const std::vector<Span>& spans, int jobs);
/// Writes the recorded trace as Chrome/Perfetto JSON to
/// <work_dir>/trace-<workload>-<seed>.json; false on I/O error.
bool write_trace(const Args& args);

/// Every per-layer figure of the traced run. Layers a workload does not
/// exercise stay 0.
struct LayerNumbers {
  // Bench-side spans over the decomposed per-net pass.
  double net_s = 0.0;  // Sum of "net" spans: per-net wall time.
  double net_self_s = 0.0;  // Part of it no layer span covers.
  double ceff_s = 0.0, superposition_s = 0.0, table_s = 0.0,
         align_rtr_s = 0.0;
  double ceff_drivers = 0.0;
  // Program counters (dn::obs registry) over the same pass.
  double table_count = 0.0, sim_linear_steps = 0.0, rtr_iterations = 0.0;
  double receiver_evals = 0.0, batched_probes = 0.0;
  double newton_iters = 0.0, nonlinear_steps = 0.0;
  double lte_reject_ratio = 0.0, warm_start_hit_ratio = 0.0,
         stale_reuse_ratio = 0.0;
  double factor_count = 0.0, factor_s = 0.0, solve_count = 0.0,
         solve_s = 0.0, refactor_fallbacks = 0.0;
  double mor_reductions = 0.0, reduction_cache_hit_ratio = 0.0;
  // Batch engine at jobs = P.
  double cache_hit_ratio = 0.0, contention_waits = 0.0,
         batch_idle_share = 0.0, report_s = 0.0;
  // Resident server (eco_serve).
  double edit_ms_p50 = 0.0, edit_ms_max = 0.0, engine_ms_p50 = 0.0,
         overhead_ms_p50 = 0.0, reanalyzed_per_eco = 0.0,
         response_bytes_mean = 0.0;
  // Trace bookkeeping: attributed = named-layer time / traced wall time;
  // overhead = traced wall / untraced wall of the same work - 1.
  double attributed_share = 0.0, overhead_share = 0.0, traced_wall_s = 0.0;
};

/// Fills the program-counter fields from the dn::obs registry.
void read_program_counters(LayerNumbers& ln);

/// Adds every per-layer metric, in BENCHMARK.json order.
void add_layer_metrics(Outcome& out, const LayerNumbers& ln);

}  // namespace perfbench
