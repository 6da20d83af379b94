// bench_perf_sim — transient-engine rework: fixed-step full Newton vs
// adaptive LTE stepping + modified Newton + warm-started alignment scans.
//
// One scenario, analyzed end-to-end twice with NoiseAnalyzer::try_analyze()
// on a 3-lane coupled bus (default ~5000 nodes, the largest rung of the
// solver bench):
//
//   fixed:    lte_tol = 0 everywhere (uniform dt grid), warm_start off,
//             stale_jacobian_iters = 0 (factor every Newton iteration) —
//             the engine exactly as it was before the rework.
//   adaptive: the new defaults — LTE-controlled power-of-two step rungs,
//             stale-Jacobian reuse across iterations and steps, DC warm
//             starts across the Ceff / Rtr / alignment sim families.
//
// Shape criterion (recorded in BENCH_perf_sim.json): adaptive is >= 10x
// faster end-to-end, with sim.nonlinear.newton_iters and solver.refactors
// each cut >= 5x, while the reported delays move by <= --acc-tol-ps.
//
//   bench_perf_sim [--nodes N] [--acc-tol-ps T]
//                  [--out BENCH_perf_sim.json]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "bench_util.hpp"
#include "clarinet/analysis_config.hpp"
#include "clarinet/analyzer.hpp"
#include "util/metrics.hpp"

using namespace dn;
using namespace dn::units;

namespace {

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// `c` with the AnalysisConfig keys in `keys` applied (the one path that
/// fans a knob out to every sim family).
AnalyzerConfig with_keys(AnalyzerConfig c, const char* keys) {
  AnalysisConfig cfg;
  cfg.batch.analyzer = std::move(c);
  const Status s = cfg.apply(*json::parse(keys));
  if (!s.ok()) {
    std::fprintf(stderr, "bench_perf_sim: %s\n", s.to_string().c_str());
    std::exit(2);
  }
  return cfg.batch.analyzer;
}

/// Coarse-but-representative alignment grid (the solver-bench grid), sparse
/// backend forced for every sim family so both runs differ only in the
/// transient engine.
AnalyzerConfig base_config() {
  AnalyzerConfig c;
  c.table_spec.search.coarse_points = 17;
  c.table_spec.search.fine_points = 9;
  c.table_spec.search.dt = 2 * ps;
  c.analysis.search.coarse_points = 17;
  c.analysis.search.fine_points = 9;
  c.analysis.search.dt = 2 * ps;
  return with_keys(std::move(c), R"({"solver":"sparse"})");
}

/// The engine exactly as it was before this rework: uniform trapezoidal
/// grid, a fresh factorization every Newton iteration, no DC reuse.
AnalyzerConfig fixed_config() {
  return with_keys(base_config(),
                   R"({"lte_tol":0,"warm_start":false,)"
                   R"("stale_jacobian_iters":0})");
}

struct RunResult {
  bool ok = false;
  double seconds = 0.0;
  DelayNoiseResult r;
  std::uint64_t newton_iters = 0;
  std::uint64_t refactors = 0;
  std::uint64_t steps = 0;
  std::uint64_t lte_accepted = 0;
  std::uint64_t lte_rejected = 0;
  std::uint64_t stale_reuse = 0;
  std::uint64_t warm_hits = 0;
  std::uint64_t warm_misses = 0;
};

RunResult run_once(const CoupledNet& net, const AnalyzerConfig& cfg,
                   const char* dump_metrics = nullptr) {
  obs::metrics().reset_all();
  NoiseAnalyzer an(cfg);
  RunResult out;
  const double t0 = now_s();
  const auto res = an.try_analyze(net);
  out.seconds = now_s() - t0;
  out.ok = res.ok();
  if (res.ok()) out.r = *res;
  auto& m = obs::metrics();
  if (dump_metrics) {
    (void)dn::durable::atomic_write_file(dump_metrics, m.to_json() + "\n");
  }
  out.newton_iters = m.counter("sim.nonlinear.newton_iters").value();
  out.refactors = m.counter("solver.refactors").value();
  out.steps = m.counter("sim.nonlinear.steps").value();
  out.lte_accepted = m.counter("sim.lte.steps_accepted").value();
  out.lte_rejected = m.counter("sim.lte.steps_rejected").value();
  out.stale_reuse = m.counter("sim.newton.stale_reuse").value();
  out.warm_hits = m.counter("sim.warm_start.hits").value();
  out.warm_misses = m.counter("sim.warm_start.misses").value();
  return out;
}

void print_run(const char* label, const RunResult& r) {
  std::printf("%-9s %8.3f s  newton_iters=%llu refactors=%llu steps=%llu\n",
              label, r.seconds,
              static_cast<unsigned long long>(r.newton_iters),
              static_cast<unsigned long long>(r.refactors),
              static_cast<unsigned long long>(r.steps));
  std::printf("          lte accepted/rejected=%llu/%llu stale_reuse=%llu "
              "warm hit/miss=%llu/%llu\n",
              static_cast<unsigned long long>(r.lte_accepted),
              static_cast<unsigned long long>(r.lte_rejected),
              static_cast<unsigned long long>(r.stale_reuse),
              static_cast<unsigned long long>(r.warm_hits),
              static_cast<unsigned long long>(r.warm_misses));
}

void json_run(std::ostream& os, const RunResult& r) {
  os << "{\"seconds\":" << r.seconds << ",\"newton_iters\":" << r.newton_iters
     << ",\"refactors\":" << r.refactors << ",\"steps\":" << r.steps
     << ",\"lte_accepted\":" << r.lte_accepted
     << ",\"lte_rejected\":" << r.lte_rejected
     << ",\"stale_reuse\":" << r.stale_reuse
     << ",\"warm_hits\":" << r.warm_hits
     << ",\"warm_misses\":" << r.warm_misses
     << ",\"noisy_t50_ps\":" << r.r.noisy_t50 / units::ps
     << ",\"nominal_t50_ps\":" << r.r.nominal_t50 / units::ps << "}";
}

}  // namespace

int main(int argc, char** argv) {
  const int nodes = dn::bench::int_flag(argc, argv, "--nodes", 5000);
  const int acc_tol_ps = dn::bench::int_flag(argc, argv, "--acc-tol-ps", 2);
  const std::string out_path =
      dn::bench::str_flag(argc, argv, "--out", "BENCH_perf_sim.json");

  dn::bench::print_header(
      "perf: transient engine (adaptive LTE + modified Newton + warm start)",
      ">= 10x e2e speedup, newton_iters and refactors cut >= 5x, delays "
      "within tolerance");

  const int segments = std::max(2, nodes / 3);
  const CoupledNet net = make_bus(3, segments, 1 * kOhm, 60 * fF, 30 * fF);
  std::printf("scenario: 3-lane coupled bus, %d segments (~%d nodes)\n\n",
              segments, nodes);

  obs::set_metrics_enabled(true);

  const std::string dump =
      dn::bench::str_flag(argc, argv, "--dump-metrics", "");
  const RunResult fixed = run_once(net, fixed_config());
  print_run("fixed", fixed);
  const RunResult adaptive =
      run_once(net, base_config(), dump.empty() ? nullptr : dump.c_str());
  print_run("adaptive", adaptive);
  std::printf("\n");

  if (!fixed.ok || !adaptive.ok) {
    std::fprintf(stderr, "error: try_analyze failed (fixed=%d adaptive=%d)\n",
                 fixed.ok, adaptive.ok);
    return 1;
  }

  const double speedup =
      adaptive.seconds > 0 ? fixed.seconds / adaptive.seconds : 0.0;
  const double newton_ratio =
      adaptive.newton_iters > 0
          ? static_cast<double>(fixed.newton_iters) /
                static_cast<double>(adaptive.newton_iters)
          : 0.0;
  const double refactor_ratio =
      adaptive.refactors > 0 ? static_cast<double>(fixed.refactors) /
                                   static_cast<double>(adaptive.refactors)
                             : 0.0;
  const double d_noisy =
      std::abs(adaptive.r.noisy_t50 - fixed.r.noisy_t50) / ps;
  const double d_nominal =
      std::abs(adaptive.r.nominal_t50 - fixed.r.nominal_t50) / ps;
  const double dn_fixed = (fixed.r.noisy_t50 - fixed.r.nominal_t50) / ps;
  const double dn_adaptive =
      (adaptive.r.noisy_t50 - adaptive.r.nominal_t50) / ps;

  std::printf("e2e speedup:        %6.2fx (%.3f s -> %.3f s)\n", speedup,
              fixed.seconds, adaptive.seconds);
  std::printf("newton_iters ratio: %6.2fx\n", newton_ratio);
  std::printf("refactors ratio:    %6.2fx\n", refactor_ratio);
  std::printf("delay noise:        fixed %.3f ps, adaptive %.3f ps\n",
              dn_fixed, dn_adaptive);
  std::printf("accuracy delta:     noisy_t50 %.3f ps, nominal_t50 %.3f ps "
              "(tol %d ps)\n\n",
              d_noisy, d_nominal, acc_tol_ps);

  const bool acc_ok = d_noisy <= acc_tol_ps && d_nominal <= acc_tol_ps;
  const bool ok = dn::bench::check(
                      "adaptive engine >= 10x faster end-to-end",
                      speedup >= 10.0) &
                  dn::bench::check("newton_iters cut >= 5x",
                                   newton_ratio >= 5.0) &
                  dn::bench::check("solver.refactors cut >= 5x",
                                   refactor_ratio >= 5.0) &
                  dn::bench::check("reported delays within tolerance", acc_ok);

  dn::bench::write_json_artifact(out_path, [&](std::ostream& jf) {
    jf << "{\"bench\":\"perf_sim\"," << dn::bench::json_host_fields()
       << ",\"criterion_pass\":"
       << (ok ? "true" : "false") << ",\"nodes\":" << nodes
       << ",\"segments\":" << segments << ",\"speedup\":" << speedup
       << ",\"newton_ratio\":" << newton_ratio
       << ",\"refactor_ratio\":" << refactor_ratio
       << ",\"accuracy\":{\"noisy_t50_delta_ps\":" << d_noisy
       << ",\"nominal_t50_delta_ps\":" << d_nominal
       << ",\"tol_ps\":" << acc_tol_ps << "},\"fixed\":";
    json_run(jf, fixed);
    jf << ",\"adaptive\":";
    json_run(jf, adaptive);
    jf << "}\n";
  });
  return ok ? 0 : 1;
}
