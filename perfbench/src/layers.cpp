#include "layers.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>

#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace perfbench {

using namespace dn;

StatusOr<DelayNoiseResult> decomposed_analyze(const AnalyzerConfig& cfg,
                                              CharacterizationCache& cache,
                                              const CoupledNet& net) {
  obs::TraceSpan net_span("net", "perfbench");
  try {
    net.validate();
  } catch (const std::exception& e) {
    return Status::InvalidArgument(e.what());
  }
  degrade::ScopedLog degrade_log;
  try {
    DelayNoiseOptions opts = cfg.analysis;
    SuperpositionOptions eng_opts = cfg.engine;
    eng_opts.solver.allow_dense_fallback = opts.degrade.sparse_to_dense;
    eng_opts.mor_fallback = opts.degrade.mor_to_unreduced;
    std::optional<SuperpositionEngine> eng;
    {
      obs::TraceSpan span("ceff", "perfbench");
      eng.emplace(net, eng_opts);
    }
    {
      obs::TraceSpan span("core.superposition", "perfbench");
      (void)eng->victim_transition();
      const double rth = eng->victim_model().model.rth;
      for (std::size_t k = 0; k < net.aggressors.size(); ++k)
        (void)eng->aggressor_noise(static_cast<int>(k), rth);
    }
    // The default configuration's prediction-table path.
    opts.method = AlignmentMethod::Predicted;
    StatusOr<const AlignmentTable*> table = Status::Internal("unset");
    {
      obs::TraceSpan span("core.table", "perfbench");
      table = cache.try_table_for(net.victim.receiver,
                                  net.victim.output_rising);
    }
    if (table.ok()) {
      opts.table = *table;
    } else if (opts.degrade.table_to_vdd2) {
      degrade::record(DegradeKind::kTableToVdd2,
                      "alignment-table characterization failed (" +
                          table.status().message() +
                          "); using receiver-input-peak alignment");
      opts.method = AlignmentMethod::ReceiverInputPeak;
      opts.table = nullptr;
    } else {
      return table.status();
    }
    obs::TraceSpan span("core.align_rtr", "perfbench");
    DelayNoiseResult r = analyze_delay_noise(*eng, opts);
    r.degradations = dedup_degradations(degrade_log.take());
    return r;
  } catch (const std::exception& e) {
    return status_from_exception(e);
  }
}

bool same_result(const CoupledNet& net, const DelayNoiseResult& a,
                 const DelayNoiseResult& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const DelayNoiseReport ra = DelayNoiseReport::from(net, a);
  const DelayNoiseReport rb = DelayNoiseReport::from(net, b);
  return ra.to_json() == rb.to_json() && ra.to_text() == rb.to_text() &&
         bits(a.nominal_t50) == bits(b.nominal_t50) &&
         bits(a.noisy_t50) == bits(b.noisy_t50) &&
         bits(a.nominal_input_t50) == bits(b.nominal_input_t50) &&
         bits(a.noisy_input_t50) == bits(b.noisy_input_t50) &&
         bits(a.holding_r) == bits(b.holding_r) &&
         bits(a.alignment.shift) == bits(b.alignment.shift) &&
         a.rtr_iterations == b.rtr_iterations;
}

std::vector<Span> collect_spans() {
  std::vector<Span> spans;
  StatusOr<json::Value> doc = json::parse(obs::TraceRecorder::instance().to_json());
  if (!doc.ok()) return spans;
  const json::Value* events = doc->find("traceEvents");
  if (events == nullptr || !events->is_array()) return spans;
  for (const json::Value& e : events->as_array()) {
    Span s;
    s.name = e.find("name")->as_string();
    s.ts_us = e.find("ts")->as_number();
    s.dur_us = e.find("dur")->as_number();
    s.self_us = s.dur_us;
    s.tid = static_cast<int>(e.find("tid")->as_number());
    spans.push_back(std::move(s));
  }
  // Parent-first order per thread: earlier start, then longer span.
  std::vector<int> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const Span& x = spans[static_cast<std::size_t>(a)];
    const Span& y = spans[static_cast<std::size_t>(b)];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
    return x.dur_us > y.dur_us;
  });
  // Timestamps carry 1 ns resolution; allow that much overhang.
  constexpr double kSlackUs = 2e-3;
  std::vector<int> open;
  int tid = -1;
  for (const int i : order) {
    Span& s = spans[static_cast<std::size_t>(i)];
    if (s.tid != tid) {
      open.clear();
      tid = s.tid;
    }
    while (!open.empty()) {
      const Span& top = spans[static_cast<std::size_t>(open.back())];
      if (s.ts_us + s.dur_us <= top.ts_us + top.dur_us + kSlackUs) break;
      open.pop_back();
    }
    if (!open.empty()) {
      s.parent = open.back();
      spans[static_cast<std::size_t>(s.parent)].self_us -= s.dur_us;
    }
    open.push_back(i);
  }
  return spans;
}

std::map<std::string, SpanTotals> totals_by_name(const std::vector<Span>& s) {
  std::map<std::string, SpanTotals> out;
  for (const Span& span : s) {
    SpanTotals& t = out[span.name];
    t.incl_s += span.dur_us * 1e-6;
    t.self_s += std::max(span.self_us, 0.0) * 1e-6;
  }
  return out;
}

void reset_observations() {
  obs::metrics().reset_all();
  obs::TraceRecorder::instance().clear();
}

void set_observing(bool on) {
  obs::set_metrics_enabled(on);
  obs::set_tracing_enabled(on);
}

double batch_idle_share(const std::vector<Span>& spans, int jobs) {
  // ThreadPool::parallel_for runs items on the pool's `jobs` workers AND
  // the calling thread, so a batch at jobs > 1 has jobs + 1 executors.
  const double executors = jobs > 1 ? jobs + 1 : 1;
  double busy_us = 0.0, run_us = 0.0;
  for (const Span& s : spans) {
    if (s.name == "batch.net") busy_us += s.dur_us;
    if (s.name == "batch.run") run_us += s.dur_us;
  }
  return run_us > 0.0 ? 1.0 - busy_us / (executors * run_us) : 0.0;
}

bool write_trace(const Args& args) {
  const std::string path = args.work_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  std::ofstream os(path);
  obs::TraceRecorder::instance().write_json(os);
  std::fprintf(stderr, "%s: trace written to %s\n", args.workload.c_str(),
               path.c_str());
  return static_cast<bool>(os);
}

namespace {

double counter(const char* name) {
  return static_cast<double>(obs::metrics().counter(name).value());
}

double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

}  // namespace

void read_program_counters(LayerNumbers& ln) {
  auto& reg = obs::metrics();
  ln.table_count = counter("characterize.tables");
  ln.sim_linear_steps = counter("sim.linear.steps");
  ln.rtr_iterations = counter("rtr.iterations");
  ln.receiver_evals = counter("alignment.receiver_evals");
  ln.batched_probes = counter("alignment.batched_probes");
  ln.newton_iters = counter("sim.nonlinear.newton_iters");
  ln.nonlinear_steps = counter("sim.nonlinear.steps");
  const double rejected = counter("sim.lte.steps_rejected");
  ln.lte_reject_ratio =
      ratio(rejected, rejected + counter("sim.lte.steps_accepted"));
  const double warm_hits = counter("sim.warm_start.hits");
  ln.warm_start_hit_ratio =
      ratio(warm_hits, warm_hits + counter("sim.warm_start.misses"));
  const double stale = counter("sim.newton.stale_reuse");
  ln.stale_reuse_ratio =
      ratio(stale, stale + counter("sim.newton.fresh_factors"));
  const auto factor = reg.histogram("stage.solver_factor.seconds").snapshot();
  const auto solve = reg.histogram("stage.solver_solve.seconds").snapshot();
  ln.factor_count = static_cast<double>(factor.count);
  ln.factor_s = factor.sum;
  ln.solve_count = static_cast<double>(solve.count);
  ln.solve_s = solve.sum;
  ln.refactor_fallbacks = counter("solver.refactor_fallbacks");
  ln.mor_reductions = static_cast<double>(
      reg.histogram("stage.reduce.seconds").snapshot().count);
  const double red_hits = counter("reduction_cache.hits");
  ln.reduction_cache_hit_ratio =
      ratio(red_hits, red_hits + counter("reduction_cache.misses"));
}

void add_layer_metrics(Outcome& out, const LayerNumbers& ln) {
  const auto share = [&](double s) { return ratio(s, ln.net_s); };
  out.add("ceff.seconds", ln.ceff_s, "s");
  out.add("ceff.share", share(ln.ceff_s), "ratio");
  out.add("ceff.drivers", ln.ceff_drivers, "count");
  out.add("core.superposition.seconds", ln.superposition_s, "s");
  out.add("core.superposition.share", share(ln.superposition_s), "ratio");
  out.add("sim.linear.steps", ln.sim_linear_steps, "count");
  out.add("core.align_rtr.seconds", ln.align_rtr_s, "s");
  out.add("core.align_rtr.share", share(ln.align_rtr_s), "ratio");
  out.add("core.rtr.iterations", ln.rtr_iterations, "count");
  out.add("core.alignment.receiver_evals", ln.receiver_evals, "count");
  out.add("core.alignment.batched_probes", ln.batched_probes, "count");
  out.add("core.table.seconds", ln.table_s, "s");
  out.add("core.table.count", ln.table_count, "count");
  out.add("clarinet.cache.hit_ratio", ln.cache_hit_ratio, "ratio");
  out.add("clarinet.cache.contention_waits", ln.contention_waits, "count");
  out.add("clarinet.batch.idle_share", ln.batch_idle_share, "ratio");
  out.add("clarinet.report.seconds", ln.report_s, "s");
  out.add("sim.nonlinear.newton_iters", ln.newton_iters, "count");
  out.add("sim.nonlinear.steps", ln.nonlinear_steps, "count");
  out.add("sim.lte.reject_ratio", ln.lte_reject_ratio, "ratio");
  out.add("sim.warm_start.hit_ratio", ln.warm_start_hit_ratio, "ratio");
  out.add("sim.newton.stale_reuse_ratio", ln.stale_reuse_ratio, "ratio");
  out.add("matrix.factor.count", ln.factor_count, "count");
  out.add("matrix.factor.seconds", ln.factor_s, "s");
  out.add("matrix.solve.count", ln.solve_count, "count");
  out.add("matrix.solve.seconds", ln.solve_s, "s");
  out.add("matrix.refactor_fallbacks", ln.refactor_fallbacks, "count");
  out.add("mor.reductions", ln.mor_reductions, "count");
  out.add("mor.reduction_cache.hit_ratio", ln.reduction_cache_hit_ratio,
          "ratio");
  out.add("server.edit_ms_p50", ln.edit_ms_p50, "ms");
  out.add("server.edit_ms_max", ln.edit_ms_max, "ms");
  out.add("server.analyze.engine_ms_p50", ln.engine_ms_p50, "ms");
  out.add("server.analyze.overhead_ms_p50", ln.overhead_ms_p50, "ms");
  out.add("server.reanalyzed_per_eco", ln.reanalyzed_per_eco, "count");
  out.add("server.response_bytes_mean", ln.response_bytes_mean, "bytes");
  out.add("trace.attributed_share", ln.attributed_share, "ratio");
  out.add("trace.overhead_share", ln.overhead_share, "ratio");
  out.add("trace.wall_s", ln.traced_wall_s, "s");
}

}  // namespace perfbench
