// batch_warm, batch_cold and bus_large: the batch engine over a seeded
// net population.
//
// End-to-end run (tracing off):
//   phase 1  one thread: NoiseAnalyzer::try_analyze per net, timed around
//            each call, in whole passes over the population;
//   phase 2  BatchAnalyzer::analyze over the population at jobs = P, in
//            whole calls;
//   checks   the phase-1 results assembled into a batch report are
//            byte-identical (to_json + to_text) to every phase-2 report.
// batch_cold starts every pass and every call on a fresh
// CharacterizationCache; the other two share one cache filled in setup.
//
// Traced run: each net once through try_analyze untraced and once
// through the decomposed per-net flow (layers.hpp) with spans and program
// counters on, then the population once through BatchAnalyzer at
// jobs = P.
#include <algorithm>
#include <cstdio>
#include <string>

#include "clarinet/batch_analyzer.hpp"
#include "core/baselines.hpp"
#include "layers.hpp"
#include "rcnet/random_nets.hpp"
#include "util/metrics.hpp"
#include "util/statistics.hpp"
#include "util/trace.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dn;
using namespace dn::units;

namespace {

enum class Kind { kWarm, kCold, kBus };

Kind kind_of(const std::string& workload) {
  if (workload == "batch_cold") return Kind::kCold;
  if (workload == "bus_large") return Kind::kBus;
  return Kind::kWarm;
}

/// batch_cold's population: default random nets whose receiver sizes are
/// spread over many values, so the run needs many distinct alignment
/// tables (receiver size x victim direction) with few nets per table.
/// Each (size, direction) key gets an equal share of the nets, so every
/// seed needs the same set of tables.
std::vector<CoupledNet> cold_nets(std::uint64_t seed, int n) {
  const double sizes[] = {1.0, 1.25, 1.5, 1.75, 2.0, 2.5,
                          3.0, 3.5,  4.0, 5.0,  6.0, 8.0};
  constexpr int kSizes = sizeof sizes / sizeof sizes[0];
  Rng rng(seed);
  std::vector<CoupledNet> nets;
  for (int i = 0; i < n; ++i) {
    CoupledNet net = random_coupled_net(rng);
    net.victim.receiver.size = sizes[i % kSizes];
    net.victim.output_rising = (i / kSizes) % 2 == 0;
    for (AggressorDesc& agg : net.aggressors)
      agg.output_rising = !net.victim.output_rising;
    nets.push_back(std::move(net));
  }
  return nets;
}

/// bus_large's population: 3-lane buses (victim in the middle) whose
/// sizes step evenly from min to max segments per lane, each jittered by
/// the seed, with seeded wire totals. The even steps keep the population's
/// total size (its cost) nearly seed-independent.
std::vector<CoupledNet> bus_nets(std::uint64_t seed, int n, int min_segments,
                                 int max_segments) {
  Rng rng(seed);
  std::vector<CoupledNet> nets;
  const int step = n > 1 ? (max_segments - min_segments) / (n - 1) : 0;
  for (int i = 0; i < n; ++i) {
    const int segments = min_segments + i * step + rng.uniform_int(0, step / 4);
    const double r_total = rng.uniform(0.9, 1.1) * kOhm;
    const double c_total = rng.uniform(55.0, 65.0) * fF;
    const double cc_total = rng.uniform(27.0, 33.0) * fF;
    nets.push_back(make_bus(3, segments, r_total, c_total, cc_total));
  }
  return nets;
}

struct Sizes {
  int nets = 0;
  int min_segments = 0, max_segments = 0;  // bus_large only.
};

/// bus_large gets P + 1 nets: BatchAnalyzer at jobs = P analyzes on P
/// pool workers plus the calling thread, and none should idle by
/// construction.
Sizes sizes_for(Kind kind, const Args& args) {
  const int p = analysis_jobs();
  switch (kind) {
    case Kind::kWarm: return args.tiny ? Sizes{6} : Sizes{150};
    case Kind::kCold: return args.tiny ? Sizes{6} : Sizes{72};
    case Kind::kBus:
      return args.tiny ? Sizes{2, 20, 30} : Sizes{p + 1, 600, 1200};
  }
  return {};
}

struct Prepared {
  std::vector<CoupledNet> nets;
  std::vector<std::string> names;
  std::shared_ptr<CharacterizationCache> cache;  // Filled unless cold.
  std::vector<CoupledNet> guard;                 // Accuracy-guard sample.
  std::shared_ptr<CharacterizationCache> guard_cache;
};

Prepared prepare(Kind kind, const Args& args, const AnalysisConfig& cfg,
                 Outcome& out) {
  const Sizes sz = sizes_for(kind, args);
  const AlignmentTableSpec& spec = cfg.batch.analyzer.table_spec;
  Prepared p;
  switch (kind) {
    case Kind::kWarm:
      p.nets = default_random_nets(args.seed, std::max(sz.nets, guard_size(args)));
      break;
    case Kind::kCold: p.nets = cold_nets(args.seed, sz.nets); break;
    case Kind::kBus:
      p.nets = bus_nets(args.seed, sz.nets, sz.min_segments, sz.max_segments);
      break;
  }
  for (std::size_t i = 0; i < p.nets.size(); ++i)
    p.names.push_back("net" + std::to_string(i));
  if (kind != Kind::kCold) {
    p.cache = std::make_shared<CharacterizationCache>(spec);
    out.check(fill_tables(*p.cache, p.nets), "setup: table fill");
  }
  if (kind == Kind::kWarm) {
    p.guard.assign(p.nets.begin(), p.nets.begin() + guard_size(args));
    p.guard_cache = p.cache;
  } else {
    p.guard = default_random_nets(args.seed, guard_size(args));
    p.guard_cache = std::make_shared<CharacterizationCache>(spec);
    out.check(fill_tables(*p.guard_cache, p.guard), "setup: guard table fill");
  }
  return p;
}

/// The cache a timed pass or call uses: batch_cold gets a fresh one.
std::shared_ptr<CharacterizationCache> pass_cache(Kind kind, const Prepared& p,
                                                  const AnalysisConfig& cfg) {
  if (kind != Kind::kCold) return p.cache;
  return std::make_shared<CharacterizationCache>(
      cfg.batch.analyzer.table_spec);
}

/// Batch report bytes of per-net results, assembled exactly as
/// BatchAnalyzer::analyze fills its slots (no screening or ladder under
/// the default configuration).
std::string assembled_report(const Prepared& p,
                             const std::vector<StatusOr<DelayNoiseResult>>& rs,
                             const AnalysisConfig& cfg) {
  BatchResult br;
  br.nets.resize(rs.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    BatchNetResult& slot = br.nets[i];
    slot.index = i;
    slot.name = p.names[i];
    if (rs[i].ok()) {
      slot.result = *rs[i];
      slot.report = DelayNoiseReport::from(p.nets[i], slot.result, slot.name);
      slot.outcome = slot.result.degradations.empty()
                         ? AnalysisOutcome::kOk
                         : AnalysisOutcome::kDegraded;
    } else {
      slot.status = rs[i].status();
      slot.outcome = AnalysisOutcome::kFailed;
    }
  }
  finalize_batch_result(br, cfg.batch.top_k, cfg.batch.ladder.enabled);
  return br.to_json() + "\n" + br.to_text();
}

std::string report_of(const BatchResult& r) {
  return r.to_json() + "\n" + r.to_text();
}

void count(Outcome& out, const StatusOr<DelayNoiseResult>& r) {
  ++out.attempted;
  if (!r.ok()) ++out.failed;
}

void count(Outcome& out, const BatchResult& r) {
  out.attempted += r.stats.total;
  out.failed += r.stats.failed;
}

/// Whole passes that fill `budget` seconds, given the first one's time:
/// a fixed count per seed keeps the population mix identical across runs.
int passes_for(double budget, double first_pass_s) {
  return std::max(1, static_cast<int>(budget / first_pass_s + 0.5));
}

/// Median-of-N untimed setup; returns the last preparation.
Prepared timed_setup(Kind kind, const Args& args, const AnalysisConfig& cfg,
                     Outcome& out, double* setup_s) {
  std::vector<double> secs;
  Prepared p;
  for (int i = 0; i < setup_repeats(args); ++i) {
    const double t0 = now_s();
    p = prepare(kind, args, cfg, out);
    secs.push_back(now_s() - t0);
  }
  *setup_s = median(secs);
  return p;
}

Outcome run_end_to_end(Kind kind, const Args& args) {
  Outcome out;
  const int jobs = analysis_jobs();
  const AnalysisConfig cfg = default_config(jobs);
  double setup_s = 0.0;
  const Prepared p = timed_setup(kind, args, cfg, out, &setup_s);

  // Phase 1: one thread, whole passes, timed around each try_analyze. A
  // net's latency is the least of its passes (seconds apart), so the
  // host's multi-second slow stretches do not enter it.
  std::vector<std::vector<double>> pass_ms(p.nets.size());
  std::vector<StatusOr<DelayNoiseResult>> first_pass;
  // Phase 1 gets the larger share: its passes are few and long.
  const double budget = 0.6 * args.seconds;
  for (int pass = 0, passes = 1; pass < passes; ++pass) {
    const double t1 = now_s();
    const NoiseAnalyzer analyzer(cfg.batch.analyzer, pass_cache(kind, p, cfg));
    for (std::size_t i = 0; i < p.nets.size(); ++i) {
      const double t0 = now_s();
      StatusOr<DelayNoiseResult> r = analyzer.try_analyze(p.nets[i]);
      pass_ms[i].push_back((now_s() - t0) * 1e3);
      count(out, r);
      if (pass == 0) first_pass.push_back(std::move(r));
    }
    if (pass == 0) passes = passes_for(budget, now_s() - t1);
  }
  std::vector<double> net_ms;
  double busy_s = 0.0;
  for (const auto& ms : pass_ms) {
    net_ms.push_back(*std::min_element(ms.begin(), ms.end()));
    busy_s += net_ms.back() * 1e-3;
  }

  // Phase 2: BatchAnalyzer at jobs = P, whole calls; the fastest call.
  const std::string reference = assembled_report(p, first_pass, cfg);
  std::vector<double> call_s;
  bool identical = true;
  for (int call = 0, calls = 1; call < calls; ++call) {
    BatchAnalyzer engine(cfg.batch, pass_cache(kind, p, cfg));
    const double t0 = now_s();
    const BatchResult r = engine.analyze(p.nets, p.names);
    call_s.push_back(now_s() - t0);
    count(out, r);
    identical = identical && report_of(r) == reference;
    if (call == 0) calls = passes_for(args.seconds - budget, call_s.back());
  }
  out.check(identical, "jobs-1 and jobs-" + std::to_string(jobs) +
                           " batch reports byte-identical");

  // Accuracy guard, untimed; batch_warm's guard nets were just analyzed.
  const std::vector<StatusOr<DelayNoiseResult>> flow =
      kind == Kind::kWarm
          ? std::vector<StatusOr<DelayNoiseResult>>(
                first_pass.begin(), first_pass.begin() + p.guard.size())
          : guard_flow(p.guard, cfg, p.guard_cache);

  const double n = static_cast<double>(p.nets.size());
  std::fprintf(stderr,
               "%s: %zu nets; phase 1: %zu passes at jobs 1; phase 2: %zu "
               "calls at jobs %d\n",
               args.workload.c_str(), p.nets.size(), pass_ms[0].size(),
               call_s.size(), jobs);
  out.add("ops_per_s", n / busy_s, "1/s");
  out.add("op_ms_p50", percentile(net_ms, 50.0), "ms");
  out.add("op_ms_p90", percentile(net_ms, 90.0), "ms");
  out.add("nets_per_s_par",
          n / *std::min_element(call_s.begin(), call_s.end()), "nets/s");
  out.add("setup_s", setup_s, "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  add_accuracy_metrics(out, p.guard, flow, cfg);
  return out;
}

Outcome run_traced(Kind kind, const Args& args) {
  Outcome out;
  const int jobs = analysis_jobs();
  const AnalysisConfig cfg = default_config(jobs);
  const AnalyzerConfig& acfg = cfg.batch.analyzer;
  const Prepared p = prepare(kind, args, cfg, out);
  LayerNumbers ln;

  // Each net through try_analyze with observability off and through the
  // decomposed flow with it on, alternating which goes first so neither
  // side always meets warm allocator and cache state. batch_cold gives
  // each side its own fresh cache.
  std::vector<StatusOr<DelayNoiseResult>> plain;
  double plain_s = 0.0, traced_s = 0.0;
  bool identical = true;
  reset_observations();
  {
    const NoiseAnalyzer analyzer(acfg, pass_cache(kind, p, cfg));
    const auto traced_cache = pass_cache(kind, p, cfg);
    for (std::size_t i = 0; i < p.nets.size(); ++i) {
      const CoupledNet& net = p.nets[i];
      StatusOr<DelayNoiseResult> untraced = Status::Internal("not run");
      StatusOr<DelayNoiseResult> traced = untraced;
      for (const bool observed : {i % 2 == 0, i % 2 != 0}) {
        set_observing(observed);
        const double t0 = now_s();
        if (observed)
          traced = decomposed_analyze(acfg, *traced_cache, net);
        else
          untraced = analyzer.try_analyze(net);
        (observed ? traced_s : plain_s) += now_s() - t0;
      }
      set_observing(false);
      count(out, untraced);
      count(out, traced);
      identical = identical && traced.ok() == untraced.ok() &&
                  (!traced.ok() || same_result(net, *traced, *untraced));
      plain.push_back(std::move(untraced));
      ln.ceff_drivers += static_cast<double>(1 + net.aggressors.size());
    }
  }
  out.check(identical, "decomposed per-net results byte-identical to "
                       "try_analyze");
  read_program_counters(ln);

  // The batch engine at jobs = P, with the report rendering spanned.
  obs::metrics().reset_all();
  set_observing(true);
  {
    BatchAnalyzer engine(cfg.batch, pass_cache(kind, p, cfg));
    const BatchResult r = engine.analyze(p.nets, p.names);
    count(out, r);
    std::string bytes;
    {
      obs::TraceSpan span("clarinet.report", "perfbench");
      bytes = report_of(r);
    }
    out.check(bytes == assembled_report(p, plain, cfg),
              "traced jobs-P batch report byte-identical to jobs-1");
    const double hits = static_cast<double>(
        obs::metrics().counter("cache.hits").value());
    const double misses = static_cast<double>(
        obs::metrics().counter("cache.misses").value());
    ln.cache_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    ln.contention_waits = static_cast<double>(
        obs::metrics().counter("cache.contention_waits").value());
  }
  set_observing(false);

  const std::vector<Span> spans = collect_spans();
  const auto totals = totals_by_name(spans);
  const auto incl = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.incl_s;
  };
  ln.net_s = incl("net");
  ln.net_self_s = totals.count("net") ? totals.at("net").self_s : 0.0;
  ln.ceff_s = incl("ceff");
  ln.superposition_s = incl("core.superposition");
  ln.table_s = incl("core.table");
  ln.align_rtr_s = incl("core.align_rtr");
  ln.report_s = incl("clarinet.report");
  ln.batch_idle_share = batch_idle_share(spans, jobs);
  ln.attributed_share = ln.net_s > 0 ? 1.0 - ln.net_self_s / ln.net_s : 0.0;
  ln.overhead_share = traced_s / plain_s - 1.0;
  ln.traced_wall_s = traced_s;

  out.check(write_trace(args), "trace written");
  add_layer_metrics(out, ln);
  return out;
}

}  // namespace

Outcome run_batch_workload(const Args& args) {
  const Kind kind = kind_of(args.workload);
  return args.trace ? run_traced(kind, args) : run_end_to_end(kind, args);
}

int setup_repeats(const Args& args) { return args.tiny ? 1 : 5; }

int guard_size(const Args& args) { return args.tiny ? 2 : 40; }

std::vector<CoupledNet> default_random_nets(std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<CoupledNet> nets;
  for (int i = 0; i < n; ++i) nets.push_back(random_coupled_net(rng));
  return nets;
}

bool fill_tables(CharacterizationCache& cache,
                 const std::vector<CoupledNet>& nets) {
  bool ok = true;
  for (const CoupledNet& net : nets)
    ok = cache.try_table_for(net.victim.receiver, net.victim.output_rising)
             .ok() &&
         ok;
  return ok;
}

std::vector<StatusOr<DelayNoiseResult>> guard_flow(
    const std::vector<CoupledNet>& nets, const AnalysisConfig& cfg,
    std::shared_ptr<CharacterizationCache> cache) {
  const NoiseAnalyzer analyzer(cfg.batch.analyzer, std::move(cache));
  std::vector<StatusOr<DelayNoiseResult>> flow;
  for (const CoupledNet& net : nets) flow.push_back(analyzer.try_analyze(net));
  return flow;
}

void add_accuracy_metrics(Outcome& out, const std::vector<CoupledNet>& nets,
                          const std::vector<StatusOr<DelayNoiseResult>>& flow,
                          const AnalysisConfig& cfg) {
  std::vector<double> model, golden;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    out.check(i < flow.size() && flow[i].ok(), "guard: flow analysis");
    if (i >= flow.size() || !flow[i].ok()) continue;
    try {
      const GoldenResult g = golden_nonlinear(
          nets[i], absolute_shifts(*flow[i]), cfg.batch.analyzer.engine);
      if (g.delay_noise() < 8 * ps) continue;
      model.push_back(flow[i]->delay_noise());
      golden.push_back(g.delay_noise());
    } catch (const std::exception& e) {
      out.check(false, std::string("guard: golden replay failed: ") + e.what());
    }
  }
  out.check(!golden.empty(), "guard: at least one net above 8 ps golden noise");
  const ErrorStats err = error_stats(model, golden);
  std::fprintf(stderr, "accuracy guard: %d of %zu nets compared\n", err.n,
               nets.size());
  out.add("dn_err_pct_mean", err.mean_abs_pct, "%");
  out.add("dn_underest_ratio",
          err.n > 0 ? static_cast<double>(err.n_underestimate) / err.n : 0.0,
          "ratio");
}

}  // namespace perfbench
