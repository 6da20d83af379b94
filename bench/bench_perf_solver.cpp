// bench_perf_solver — dense vs sparse linear-solver backend scaling.
//
// Two sweeps over unreduced net sizes (default 100/500/2000/5000 nodes):
//
//   1. factor+solve: build the trapezoidal system matrix C/dt + G/2 of a
//      coupled two-rail RC ladder (vsource branch rows included, so the
//      pivoting path is exercised) and time SystemSolver factorization and
//      back-substitution with the backend forced dense and forced sparse.
//   2. end-to-end: NoiseAnalyzer::try_analyze() on a 3-lane coupled bus of
//      comparable size, again per forced backend. Dense e2e is skipped
//      above --dense-e2e-max nodes (default 500) — an O(n^3) factor per
//      transient sim makes the dense flow minutes-long there, which is
//      exactly the point of this PR.
//
// Shape criterion (recorded in BENCH_perf_solver.json): the sparse backend
// is >= 5x faster than dense for factor+solve on a >= 2000-node net.
//
//   bench_perf_solver [--solves K] [--dense-e2e-max N]
//                     [--out BENCH_perf_solver.json]
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuit/mna.hpp"
#include "clarinet/analyzer.hpp"
#include "matrix/solver.hpp"
#include "util/metrics.hpp"

using namespace dn;
using namespace dn::units;

namespace {

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// Coupled two-rail RC ladder with ~`nodes` total unknowns: two chains of
/// resistors with grounded and rail-to-rail coupling caps, each rail driven
/// by a voltage source (zero structural diagonal on the branch rows).
Circuit make_coupled_ladder(int nodes) {
  Circuit c;
  const int per_rail = nodes / 2;
  std::vector<NodeId> rail_a, rail_b;
  for (int i = 0; i < per_rail; ++i) {
    rail_a.push_back(c.node("a" + std::to_string(i)));
    rail_b.push_back(c.node("b" + std::to_string(i)));
  }
  c.add_vsource(rail_a[0], kGround, Pwl::constant(1.8));
  c.add_vsource(rail_b[0], kGround, Pwl::constant(0.0));
  for (int i = 0; i + 1 < per_rail; ++i) {
    c.add_resistor(rail_a[static_cast<std::size_t>(i)],
                   rail_a[static_cast<std::size_t>(i + 1)], 2.0);
    c.add_resistor(rail_b[static_cast<std::size_t>(i)],
                   rail_b[static_cast<std::size_t>(i + 1)], 2.0);
  }
  for (int i = 0; i < per_rail; ++i) {
    c.add_capacitor(rail_a[static_cast<std::size_t>(i)], kGround, 0.5 * fF);
    c.add_capacitor(rail_b[static_cast<std::size_t>(i)], kGround, 0.5 * fF);
    c.add_capacitor(rail_a[static_cast<std::size_t>(i)],
                    rail_b[static_cast<std::size_t>(i)], 0.2 * fF);
  }
  return c;
}

struct FactorSolveTiming {
  double factor_s = 0.0;
  double solve_s = 0.0;  // One back-substitution.
  double total() const { return factor_s + solve_s; }
};

FactorSolveTiming time_backend(const SparseMatrix& a, const Vector& b,
                               SolverBackend backend, int reps, int solves) {
  SolverOptions opts;
  opts.backend = backend;
  FactorSolveTiming best;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_s();
    auto solver = SystemSolver::make(a, opts);
    const double t_factor = now_s() - t0;
    solver.status().throw_if_error();
    Vector x = b;
    const double t1 = now_s();
    for (int k = 0; k < solves; ++k) {
      x = b;
      solver->solve_in_place(x);
    }
    const double t_solve = (now_s() - t1) / solves;
    if (rep == 0 || t_factor + t_solve < best.total())
      best = {t_factor, t_solve};
  }
  return best;
}

AnalyzerConfig e2e_config(SolverBackend backend) {
  // The coarse-but-representative search grid also used by the analyzer
  // tests; the backend rules both the superposition sims and the
  // C-effective iteration.
  AnalyzerConfig c;
  c.table_spec.search.coarse_points = 17;
  c.table_spec.search.fine_points = 9;
  c.table_spec.search.dt = 2 * ps;
  c.analysis.search.coarse_points = 17;
  c.analysis.search.fine_points = 9;
  c.analysis.search.dt = 2 * ps;
  c.engine.solver.backend = backend;
  return c;
}

/// Seconds for one cold try_analyze() (fresh analyzer + cache), or a
/// negative value on analysis failure.
double time_e2e(const CoupledNet& net, SolverBackend backend) {
  NoiseAnalyzer an(e2e_config(backend));
  const double t0 = now_s();
  const auto r = an.try_analyze(net);
  const double dt = now_s() - t0;
  return r.ok() ? dt : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const int solves = dn::bench::int_flag(argc, argv, "--solves", 20);
  const int dense_e2e_max =
      dn::bench::int_flag(argc, argv, "--dense-e2e-max", 500);
  const std::string out_path =
      dn::bench::str_flag(argc, argv, "--out", "BENCH_perf_solver.json");
  const std::vector<int> sizes{100, 500, 2000, 5000};

  dn::bench::print_header(
      "perf: dense vs sparse solver backend",
      "sparse >= 5x faster than dense factor+solve on a >= 2000-node net");

  obs::set_metrics_enabled(true);
  obs::metrics().reset_all();

  // --- factor + solve on the trapezoidal matrix -------------------------
  std::printf("factor+solve (trapezoidal matrix C/dt + G/2, best of reps):\n");
  std::printf("%7s %6s %9s %8s %12s %12s %12s %12s %9s\n", "nodes", "dim",
              "nnz", "density", "dense_fac_s", "dense_sol_s", "sparse_fac_s",
              "sparse_sol_s", "speedup");
  bool crit_pass = false;
  bool crit_seen = false;
  std::ostringstream fs_rows;
  for (const int nodes : sizes) {
    const Circuit ckt = make_coupled_ladder(nodes);
    const MnaSystem mna(ckt);
    const SparseMatrix a =
        SparseMatrix::combine(1.0 / (1 * ps), mna.Cs(), 0.5, mna.Gs());
    const Vector b = mna.rhs(0.0);
    const int reps = nodes <= 500 ? 5 : 1;
    const FactorSolveTiming dense =
        time_backend(a, b, SolverBackend::kDense, reps, solves);
    const FactorSolveTiming sparse =
        time_backend(a, b, SolverBackend::kSparse, reps, solves);
    const double speedup =
        sparse.total() > 0 ? dense.total() / sparse.total() : 0.0;
    if (nodes >= 2000) {
      crit_seen = true;
      if (speedup >= 5.0) crit_pass = true;
    }
    std::printf("%7d %6zu %9zu %7.4f%% %12.6f %12.6f %12.6f %12.6f %8.1fx\n",
                nodes, a.rows(), a.nnz(), 100.0 * a.density(), dense.factor_s,
                dense.solve_s, sparse.factor_s, sparse.solve_s, speedup);
    if (fs_rows.tellp() > 0) fs_rows << ",";
    fs_rows << "{\"nodes\":" << nodes << ",\"dim\":" << a.rows()
            << ",\"nnz\":" << a.nnz() << ",\"density\":" << a.density()
            << ",\"dense\":{\"factor_s\":" << dense.factor_s
            << ",\"solve_s\":" << dense.solve_s
            << "},\"sparse\":{\"factor_s\":" << sparse.factor_s
            << ",\"solve_s\":" << sparse.solve_s
            << "},\"speedup\":" << speedup << "}";
  }
  std::printf("\n");

  // --- end-to-end try_analyze -------------------------------------------
  std::printf("end-to-end try_analyze (3-lane coupled bus, cold cache):\n");
  std::printf("%7s %9s %10s %10s %9s\n", "nodes", "segments", "dense_s",
              "sparse_s", "speedup");
  std::ostringstream e2e_rows;
  for (const int nodes : sizes) {
    const int segments = std::max(2, nodes / 3);
    const CoupledNet net = make_bus(3, segments, 1 * kOhm, 60 * fF, 30 * fF);
    const double t_sparse = time_e2e(net, SolverBackend::kSparse);
    double t_dense = -2.0;  // -2: skipped, -1: failed.
    if (nodes <= dense_e2e_max)
      t_dense = time_e2e(net, SolverBackend::kDense);
    char dense_str[32];
    if (t_dense == -2.0)
      std::snprintf(dense_str, sizeof dense_str, "skip");
    else if (t_dense < 0)
      std::snprintf(dense_str, sizeof dense_str, "FAIL");
    else
      std::snprintf(dense_str, sizeof dense_str, "%.3f", t_dense);
    const double e2e_speedup =
        (t_dense > 0 && t_sparse > 0) ? t_dense / t_sparse : 0.0;
    std::printf("%7d %9d %10s %10.3f %8.2fx\n", nodes, segments, dense_str,
                t_sparse, e2e_speedup);
    if (e2e_rows.tellp() > 0) e2e_rows << ",";
    e2e_rows << "{\"nodes\":" << nodes << ",\"segments\":" << segments
             << ",\"dense_s\":";
    if (t_dense >= 0) e2e_rows << t_dense;
    else e2e_rows << "null";
    e2e_rows << ",\"sparse_s\":" << t_sparse << "}";
  }
  std::printf("\n");

  const bool ok = dn::bench::check(
      "sparse >= 5x faster than dense factor+solve on a >= 2000-node net",
      crit_seen && crit_pass);

  dn::bench::write_json_artifact(out_path, [&](std::ostream& jf) {
    jf << "{\"bench\":\"perf_solver\"," << dn::bench::json_host_fields()
       << ",\"criterion_pass\":"
       << (ok ? "true" : "false") << ",\"factor_solve\":[" << fs_rows.str()
       << "],\"e2e\":[" << e2e_rows.str() << "],\"metrics\":";
    obs::metrics().write_json(jf);
    jf << "}\n";
  });
  return ok ? 0 : 1;
}
