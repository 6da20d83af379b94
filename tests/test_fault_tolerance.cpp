// Fault-tolerance layer: deadlines/cancellation (util/deadline.*), the
// deterministic fault-injection harness (util/fault_injection.*), the
// degradation ladder (util/degradation.*, DESIGN.md §10), and the batch
// engine's isolation/outcome accounting under injected chaos.
//
// The two load-bearing properties:
//   1. Injected faults at every site yield degraded-or-failed batch
//      output — never a crash, never a poisoned cache entry that wedges
//      the run.
//   2. A chaos run is bit-for-bit reproducible: identical reports for a
//      fixed fault seed at jobs=1 and jobs=8.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "ceff/thevenin_table.hpp"
#include "clarinet/batch_analyzer.hpp"
#include "clarinet/characterization_cache.hpp"
#include "matrix/solver.hpp"
#include "rcnet/random_nets.hpp"
#include "rcnet/spef.hpp"
#include "util/deadline.hpp"
#include "util/degradation.hpp"
#include "util/fault_injection.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

/// Arms injection for one test body and guarantees disarm on exit, so a
/// failing assertion cannot leak chaos into the next test.
struct ScopedFaults {
  ScopedFaults(const std::string& spec, std::uint64_t seed) {
    StatusOr<fault::FaultSpec> parsed = fault::parse_fault_spec(spec);
    if (!parsed.ok()) throw std::invalid_argument(parsed.status().to_string());
    fault::install(*parsed, seed);
  }
  ~ScopedFaults() { fault::clear(); }
};

AnalyzerConfig fast_config() {
  AnalyzerConfig c;
  c.table_spec.search.coarse_points = 17;
  c.table_spec.search.fine_points = 9;
  c.table_spec.search.dt = 2 * ps;
  c.analysis.search.coarse_points = 17;
  c.analysis.search.fine_points = 9;
  c.analysis.search.dt = 2 * ps;
  return c;
}

std::vector<CoupledNet> random_population(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<CoupledNet> nets;
  nets.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) nets.push_back(random_coupled_net(rng));
  return nets;
}

// ---------------------------------------------------------------------------
// Deadline
// ---------------------------------------------------------------------------

TEST(Deadline, DefaultNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(d.check("here").ok());
  d.cancel();  // No-op on a non-cancellable deadline.
  EXPECT_FALSE(d.expired());
}

TEST(Deadline, AfterExpires) {
  const Deadline d = Deadline::after(-1.0);
  EXPECT_TRUE(d.expired());
  const Status s = d.check("unit test");
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(s.message().find("unit test"), std::string::npos);
  EXPECT_FALSE(Deadline::after(60.0).expired());
}

TEST(Deadline, BudgetsBeyondTheClockRangeSaturate) {
  // 1e10 s and up overflow the clock's int64 nanosecond count; they must
  // mean "never", not wrap into the past.
  for (const double s : {1e10, 1e13, 1e300, HUGE_VAL}) {
    const Deadline d = Deadline::after(s);
    EXPECT_FALSE(d.expired()) << s;
    EXPECT_TRUE(std::isinf(d.remaining_s())) << s;
    d.cancel();  // Still cancellable, like any after() deadline.
    EXPECT_TRUE(d.expired()) << s;
  }
  EXPECT_TRUE(Deadline::after(-1e13).expired());
}

TEST(Deadline, HugeBatchDeadlineAnalyzesEveryNet) {
  BatchOptions opts;
  opts.analyzer = fast_config();
  opts.deadline_ms = 1e13;
  BatchAnalyzer engine(opts);
  const BatchResult result = engine.analyze(random_population(2, 1));
  ASSERT_EQ(result.nets.size(), 2u);
  for (const auto& nr : result.nets) EXPECT_TRUE(nr.status.ok());
  EXPECT_EQ(result.stats.failed, 0u);
}

TEST(Deadline, CancellationReachesCopies) {
  const Deadline d = Deadline::cancellable();
  const Deadline copy = d;
  EXPECT_FALSE(copy.expired());
  d.cancel();
  EXPECT_TRUE(copy.expired());
}

TEST(Deadline, CheckpointThrowsOnlyUnderExpiredScope) {
  EXPECT_NO_THROW(deadline_checkpoint("outside any scope"));
  {
    ScopedDeadline live(Deadline::after(60.0));
    EXPECT_NO_THROW(deadline_checkpoint("live scope"));
    {
      ScopedDeadline dead(Deadline::after(-1.0));
      EXPECT_THROW(deadline_checkpoint("dead scope"), DeadlineError);
    }
    // Nesting restored: the outer (live) deadline governs again.
    EXPECT_NO_THROW(deadline_checkpoint("restored scope"));
  }
  EXPECT_NO_THROW(deadline_checkpoint("after all scopes"));
}

TEST(Deadline, ExpiredBatchDeadlineFailsNetsWithDeadlineExceeded) {
  BatchOptions opts;
  opts.analyzer = fast_config();
  opts.jobs = 2;
  opts.deadline_ms = 1e-6;  // Expired before the first worker starts.
  BatchAnalyzer engine(opts);
  const auto nets = random_population(4, 11);
  const BatchResult result = engine.analyze(nets);
  ASSERT_EQ(result.nets.size(), 4u);
  for (const auto& nr : result.nets) {
    EXPECT_EQ(nr.outcome, AnalysisOutcome::kFailed);
    EXPECT_EQ(nr.status.code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ(result.stats.failed, 4u);
}

// ---------------------------------------------------------------------------
// Fault spec / deterministic decisions
// ---------------------------------------------------------------------------

TEST(FaultSpec, ParsesSitesRatesAndAll) {
  const auto spec = fault::parse_fault_spec("newton:0.25,cache");
  ASSERT_TRUE(spec.ok());
  EXPECT_DOUBLE_EQ(spec->rate[static_cast<int>(fault::Site::kNewton)], 0.25);
  EXPECT_DOUBLE_EQ(spec->rate[static_cast<int>(fault::Site::kCacheFill)], 1.0);
  EXPECT_DOUBLE_EQ(spec->rate[static_cast<int>(fault::Site::kFactor)], 0.0);

  const auto all = fault::parse_fault_spec("all:0.5");
  ASSERT_TRUE(all.ok());
  for (const double r : all->rate) EXPECT_DOUBLE_EQ(r, 0.5);

  EXPECT_FALSE(fault::parse_fault_spec("bogus:0.5").ok());
  // A net gets exactly one analysis attempt, so there is no worker-task
  // site to fault.
  const auto task = fault::parse_fault_spec("task:0.3");
  ASSERT_FALSE(task.ok());
  EXPECT_EQ(task.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(task.status().message().find("unknown site 'task'"),
            std::string::npos);
  EXPECT_FALSE(fault::parse_fault_spec("newton:1.5").ok());
  EXPECT_FALSE(fault::parse_fault_spec("newton:x").ok());
  EXPECT_FALSE(fault::parse_fault_spec("").ok());
}

TEST(FaultInjection, DisabledProbesNeverFire) {
  fault::clear();
  EXPECT_FALSE(fault::enabled());
  for (int i = 0; i < 1000; ++i)
    EXPECT_FALSE(fault::should_fail(fault::Site::kNewton,
                                    static_cast<std::uint64_t>(i)));
}

TEST(FaultInjection, KeyedDecisionsAreAPureFunctionOfSeedSiteKey) {
  ScopedFaults faults("newton:0.5", 42);
  std::vector<bool> first;
  for (std::uint64_t k = 0; k < 256; ++k)
    first.push_back(fault::should_fail(fault::Site::kNewton, k));
  int fired = 0;
  for (std::uint64_t k = 0; k < 256; ++k) {
    EXPECT_EQ(fault::should_fail(fault::Site::kNewton, k), first[k]);
    fired += first[k] ? 1 : 0;
  }
  // Rate 0.5 over 256 keys: both outcomes must occur.
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 256);
  // A different seed flips some decisions.
  fault::install(*fault::parse_fault_spec("newton:0.5"), 43);
  int diffs = 0;
  for (std::uint64_t k = 0; k < 256; ++k)
    diffs += fault::should_fail(fault::Site::kNewton, k) != first[k] ? 1 : 0;
  EXPECT_GT(diffs, 0);
}

TEST(FaultInjection, ScopedContextMakesAmbientProbesReproducible) {
  ScopedFaults faults("factor:0.5", 7);
  std::vector<bool> a, b;
  {
    fault::ScopedContext ctx(1234);
    for (int i = 0; i < 64; ++i) a.push_back(fault::should_fail(fault::Site::kFactor));
  }
  {
    fault::ScopedContext ctx(1234);
    for (int i = 0; i < 64; ++i) b.push_back(fault::should_fail(fault::Site::kFactor));
  }
  // Same context id -> the Nth probe decides identically; that is what
  // detaches chaos runs from thread scheduling.
  EXPECT_EQ(a, b);
  // Probes under ScopedSuspend (a shared driver-table fill) never fire and
  // do not advance the scope's counters, so whether this thread filled a
  // table leaves its later decisions unchanged.
  std::vector<bool> c;
  {
    fault::ScopedContext ctx(1234);
    for (int i = 0; i < 64; ++i) {
      {
        fault::ScopedSuspend suspended;
        EXPECT_FALSE(fault::should_fail(fault::Site::kFactor));
        EXPECT_FALSE(fault::should_fail(fault::Site::kFactor, i));
      }
      c.push_back(fault::should_fail(fault::Site::kFactor));
    }
  }
  EXPECT_EQ(a, c);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
}

// ---------------------------------------------------------------------------
// Degradation ladder bookkeeping
// ---------------------------------------------------------------------------

TEST(Degradation, DedupCollapsesRepeatsPerKind) {
  std::vector<Degradation> log;
  for (int i = 0; i < 5; ++i)
    log.push_back({DegradeKind::kSparseToDense, "pivot " + std::to_string(i)});
  log.push_back({DegradeKind::kRtrToRth, "newton"});
  const auto out = dedup_degradations(log);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].kind, DegradeKind::kSparseToDense);
  EXPECT_EQ(out[0].count, 5);
  EXPECT_EQ(out[0].detail, "pivot 0");  // First detail survives.
  EXPECT_EQ(out[1].kind, DegradeKind::kRtrToRth);
  EXPECT_EQ(out[1].count, 1);
}

TEST(Degradation, ScopedLogCapturesAndRestores) {
  degrade::ScopedLog outer;
  degrade::record(DegradeKind::kRtrToRth, "outer entry");
  {
    degrade::ScopedLog inner;
    degrade::record(DegradeKind::kTableToVdd2, "inner entry");
    const auto entries = inner.take();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].kind, DegradeKind::kTableToVdd2);
  }
  degrade::record(DegradeKind::kSparseToDense, "outer again");
  const auto entries = outer.take();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].kind, DegradeKind::kRtrToRth);
  EXPECT_EQ(entries[1].kind, DegradeKind::kSparseToDense);
}

// ---------------------------------------------------------------------------
// SPEF parse site + hardened parser
// ---------------------------------------------------------------------------

TEST(FaultSites, ParseSiteDegradesToStatusNotCrash) {
  const std::string deck = [] {
    Rng rng(5);
    std::ostringstream os;
    write_spef(os, random_coupled_net(rng));
    return os.str();
  }();
  {
    ScopedFaults faults("parse:1", 3);
    std::istringstream is(deck);
    const auto net = try_read_spef(is);
    ASSERT_FALSE(net.ok());
    EXPECT_EQ(net.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(net.status().message().find("injected"), std::string::npos);
  }
  // Disarmed, the same deck parses — the probe never corrupted state.
  std::istringstream is(deck);
  EXPECT_TRUE(try_read_spef(is).ok());
}

TEST(SpefHardening, ErrorsCarryLineAndColumn) {
  std::istringstream is("*SPEF \"dnoise-subset-1\"\n*D_NET v *VICTIM\n*SINK x\n");
  const auto net = try_read_spef(is);
  ASSERT_FALSE(net.ok());
  EXPECT_NE(net.status().message().find("spef:3:7"), std::string::npos)
      << net.status().message();
}

TEST(SpefHardening, RejectsHugeIndicesNonFiniteAndTruncation) {
  const char* bad[] = {
      // Node index large enough to OOM a dense allocation downstream.
      "*SPEF \"dnoise-subset-1\"\n*D_NET v *VICTIM\n*SINK 99999999999\n*END\n",
      "*SPEF \"dnoise-subset-1\"\n*D_NET v *VICTIM\n*CAP\nv:2000001 1\n*END\n",
      // Non-finite and overflowing numbers.
      "*SPEF \"dnoise-subset-1\"\n*D_NET v *VICTIM\n*DRIVER INV nan 50 RISE\n",
      "*SPEF \"dnoise-subset-1\"\n*D_NET v *VICTIM\n*DRIVER INV inf 50 RISE\n",
      "*SPEF \"dnoise-subset-1\"\n*D_NET v *VICTIM\n*DRIVER INV 1e999 50 RISE\n",
      // Truncations at assorted boundaries.
      "",
      "*SPEF",
      "*SPEF \"dnoise-subset-1\"\n*D_NET",
      "*SPEF \"dnoise-subset-1\"\n*D_NET v *VICTIM\n*CAP\nv:1",
  };
  for (const char* deck : bad) {
    std::istringstream is(deck);
    const auto net = try_read_spef(is);
    EXPECT_FALSE(net.ok()) << "deck: " << deck;
    EXPECT_EQ(net.status().code(), StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// Batch chaos: every site degrades or fails, never crashes
// ---------------------------------------------------------------------------

BatchOptions chaos_options(int jobs) {
  BatchOptions opts;
  opts.analyzer = fast_config();
  opts.jobs = jobs;
  opts.top_k = 4;
  return opts;
}

TEST(FaultSites, EverySiteYieldsDegradedOrFailedNeverCrash) {
  const auto nets = random_population(6, 21);
  const struct {
    const char* spec;
    SolverBackend backend;
  } cases[] = {
      {"cache:0.5", SolverBackend::kAuto},
      {"factor:0.5", SolverBackend::kSparse},  // Sparse path hosts the probe.
      {"newton:0.05", SolverBackend::kAuto},
      {"all:0.08", SolverBackend::kSparse},
  };
  for (const auto& c : cases) {
    ScopedFaults faults(c.spec, 9);
    BatchOptions opts = chaos_options(2);
    opts.analyzer.engine.solver.backend = c.backend;
    BatchAnalyzer engine(opts);
    const BatchResult result = engine.analyze(nets);
    ASSERT_EQ(result.nets.size(), nets.size()) << c.spec;
    for (const auto& nr : result.nets) {
      // Every net concluded with a classified outcome and a coherent
      // status/result pairing.
      if (nr.status.ok()) {
        EXPECT_TRUE(nr.outcome == AnalysisOutcome::kOk ||
                    nr.outcome == AnalysisOutcome::kDegraded)
            << c.spec;
        if (nr.outcome == AnalysisOutcome::kDegraded) {
          EXPECT_FALSE(nr.result.degradations.empty()) << c.spec;
        }
      } else {
        EXPECT_EQ(nr.outcome, AnalysisOutcome::kFailed) << c.spec;
      }
    }
    // Rendering a chaotic result must not throw either.
    EXPECT_FALSE(result.to_text().empty()) << c.spec;
    EXPECT_FALSE(result.to_json().empty()) << c.spec;
  }
}

TEST(FaultSites, CacheFaultDegradesToVdd2Alignment) {
  ScopedFaults faults("cache:1", 13);
  BatchAnalyzer engine(chaos_options(2));
  const auto nets = random_population(4, 23);
  const BatchResult result = engine.analyze(nets);
  std::size_t degraded = 0;
  for (const auto& nr : result.nets) {
    ASSERT_TRUE(nr.status.ok());
    ASSERT_EQ(nr.outcome, AnalysisOutcome::kDegraded);
    ASSERT_FALSE(nr.result.degradations.empty());
    EXPECT_EQ(nr.result.degradations[0].kind, DegradeKind::kTableToVdd2);
    ++degraded;
  }
  EXPECT_EQ(result.stats.degraded, degraded);
  EXPECT_EQ(result.stats.failed, 0u);
}

TEST(FaultSites, CacheFaultWithPolicyOffFailsInsteadOfDegrading) {
  ScopedFaults faults("cache:1", 13);
  BatchOptions opts = chaos_options(1);
  opts.analyzer.analysis.degrade.table_to_vdd2 = false;
  BatchAnalyzer engine(opts);
  const BatchResult result = engine.analyze(random_population(2, 23));
  for (const auto& nr : result.nets) {
    EXPECT_FALSE(nr.status.ok());
    EXPECT_EQ(nr.outcome, AnalysisOutcome::kFailed);
  }
}

// Every factor of a `factor:1` sparse run takes the sparse-to-dense rung,
// which builds the same LuFactor a forced-dense solver builds, so the
// degraded run reproduces a clean dense-backend run exactly. (Against a
// clean sparse run it only agrees up to LU roundoff, and that roundoff
// can flip adaptive LTE step decisions: no fixed tolerance holds across
// nets.)
TEST(FaultSites, FactorFaultFallsBackToDenseAndMatchesCleanResults) {
  BatchOptions opts = chaos_options(2);
  const auto nets = random_population(4, 29);

  opts.analyzer.engine.solver.backend = SolverBackend::kDense;
  BatchResult clean = BatchAnalyzer(opts).analyze(nets);
  opts.analyzer.engine.solver.backend = SolverBackend::kSparse;
  BatchResult chaotic = [&] {
    ScopedFaults faults("factor:1", 17);
    return BatchAnalyzer(opts).analyze(nets);
  }();

  ASSERT_EQ(chaotic.nets.size(), clean.nets.size());
  for (std::size_t i = 0; i < clean.nets.size(); ++i) {
    ASSERT_TRUE(clean.nets[i].status.ok());
    ASSERT_TRUE(chaotic.nets[i].status.ok());
    EXPECT_EQ(chaotic.nets[i].outcome, AnalysisOutcome::kDegraded);
    ASSERT_FALSE(chaotic.nets[i].result.degradations.empty());
    EXPECT_EQ(chaotic.nets[i].result.degradations[0].kind,
              DegradeKind::kSparseToDense);
    EXPECT_EQ(chaotic.nets[i].result.delay_noise(),
              clean.nets[i].result.delay_noise())
        << "net " << i;
    EXPECT_EQ(chaotic.nets[i].result.holding_r,
              clean.nets[i].result.holding_r)
        << "net " << i;
  }
}

// A small system that takes the sparse-to-dense rung, at factor or at
// refactor time, lands on the same LuFactor a forced-dense solver builds,
// so its solutions are bit-identical to the dense backend's.
TEST(FaultSites, SmallSystemDenseFallbackMatchesDenseSolverBitwise) {
  const std::size_t n = 6;
  Matrix a(n, n), a2(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      a(r, c) = r == c ? 4.0 + static_cast<double>(r) : 1.0 / (1.0 + r + 2.0 * c);
      a2(r, c) = 1.5 * a(r, c) - (r == c + 1 ? 0.25 : 0.0);
    }
  }
  const SparseMatrix sa = SparseMatrix::from_dense(a);
  const SparseMatrix sa2 = SparseMatrix::from_dense(a2);
  SolverOptions sparse_opts, dense_opts;
  sparse_opts.backend = SolverBackend::kSparse;
  dense_opts.backend = SolverBackend::kDense;
  const Vector b{1.0, -2.0, 0.5, 3.0, -0.25, 7.0};

  auto dense = SystemSolver::make(sa, dense_opts);
  ASSERT_TRUE(dense.ok());
  auto fell_back = [&] {
    ScopedFaults faults("factor:1", 17);
    return SystemSolver::make(sa, sparse_opts);
  }();
  ASSERT_TRUE(fell_back.ok());
  EXPECT_EQ(fell_back->backend(), SolverBackend::kDense);
  EXPECT_EQ(fell_back->solve(b), dense->solve(b));

  // Refactor rung: factored sparse, then every re-pivot attempt fails.
  auto refactored = SystemSolver::make(sa, sparse_opts);
  ASSERT_TRUE(refactored.ok());
  ASSERT_EQ(refactored->backend(), SolverBackend::kSparse);
  {
    ScopedFaults faults("factor:1", 17);
    ASSERT_TRUE(refactored->refactor(sa2).ok());
  }
  EXPECT_EQ(refactored->backend(), SolverBackend::kDense);
  ASSERT_TRUE(dense->refactor(sa2).ok());
  EXPECT_EQ(refactored->solve(b), dense->solve(b));
}

// With the sparse-to-dense rung switched off, no sim of the net takes
// it: the Ceff inner sims run on the engine's solver options, so a
// factor failure there fails the net instead of falling back.
TEST(FaultSites, FactorFaultWithPolicyOffNeverFallsBackToDense) {
  BatchOptions opts = chaos_options(1);
  opts.analyzer.engine.solver.backend = SolverBackend::kSparse;
  opts.analyzer.analysis.degrade.sparse_to_dense = false;
  const auto nets = random_population(2, 29);
  obs::Counter& fallbacks = obs::metrics().counter("degrade.sparse_to_dense");
  fallbacks.reset();
  obs::set_metrics_enabled(true);
  const BatchResult result = [&] {
    ScopedFaults faults("factor:1", 17);
    return BatchAnalyzer(opts).analyze(nets);
  }();
  obs::set_metrics_enabled(false);
  EXPECT_EQ(fallbacks.value(), 0u);
  ASSERT_EQ(result.nets.size(), nets.size());
  for (const auto& nr : result.nets) {
    EXPECT_EQ(nr.outcome, AnalysisOutcome::kFailed);
    EXPECT_TRUE(nr.result.degradations.empty());
  }
}

std::string table_text(const TheveninTable& tbl) {
  std::ostringstream os;
  tbl.save(os);
  return os.str();
}

std::string table_text(const AlignmentTable& tbl) {
  std::ostringstream os;
  tbl.save(os);
  return os.str();
}

// The driver-table store outlives every analyzer, fault configuration,
// deadline and solver setting, so a stored table must be the clean fill
// whatever the filling thread was running under.
TEST(FaultSites, DriverTableFillsIgnoreFaultsDeadlineAndSolver) {
  GateParams g;
  g.size = 3.0;
  DriverTableStore clean;
  const std::string want = table_text(driver_table(g, true, {}, clean));
  {
    ScopedFaults faults("all:1", 5);
    DriverTableStore store;
    EXPECT_EQ(table_text(driver_table(g, true, {}, store)), want);
  }
  {
    ScopedDeadline expired(Deadline::after(-1.0));
    DriverTableStore store;
    EXPECT_EQ(table_text(driver_table(g, true, {}, store)), want);
  }
  // An engine on the forced sparse backend, its dense fallback off, fills
  // the process-wide store with the clean bits too.
  Rng rng(3);
  CoupledNet net = random_coupled_net(rng);
  net.victim.driver.size = 3.3;  // A key no other test fills.
  SuperpositionOptions opts;
  opts.solver.backend = SolverBackend::kSparse;
  opts.solver.allow_dense_fallback = false;
  const SuperpositionEngine eng(net, opts);
  TheveninFitOptions fit;
  fit.lte_tol = opts.lte_tol;
  fit.stale_jacobian_iters = opts.newton.stale_jacobian_iters;
  EXPECT_EQ(
      table_text(driver_table(net.victim.driver, net.victim.output_rising,
                              fit)),
      table_text(driver_table(net.victim.driver, net.victim.output_rising,
                              fit, clean)));
}

// Alignment tables keep the same protocol, their corner searches on pool
// workers included: under every site the fill reaches and an expired
// deadline, the cache fills the clean table. An injected `cache` fault
// fails its lookups while it is armed and leaves nothing in the store.
TEST(FaultSites, AlignmentTableFillsIgnoreFaultsAndDeadline) {
  const AlignmentTableSpec spec = fast_config().table_spec;
  GateParams rcv;
  rcv.size = 1.5;
  CharacterizationCache clean{spec};
  const std::string want = table_text(*clean.try_table_for(rcv, true).value());

  ThreadPool pool(4);
  CharacterizationCache cache{spec};
  cache.set_characterization_pool(&pool);
  {
    ScopedFaults faults("all:1", 5);
    ScopedDeadline expired(Deadline::after(-1.0));
    const StatusOr<const AlignmentTable*> r = cache.try_table_for(rcv, true);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("injected fault"), std::string::npos);
    EXPECT_EQ(cache.tables_cached(), 0u);
  }
  {
    ScopedFaults faults("factor:1,newton:1", 5);
    ScopedDeadline expired(Deadline::after(-1.0));
    const StatusOr<const AlignmentTable*> r = cache.try_table_for(rcv, true);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(table_text(**r), want);
  }
  EXPECT_EQ(table_text(*cache.try_table_for(rcv, true).value()), want);
  EXPECT_EQ(cache.misses(), 1u);
  cache.set_characterization_pool(nullptr);
}

// A failed fill is stored like a table: the next lookup of its key
// returns the same status without simulating again.
TEST(FaultSites, FailedDriverTableFillIsStoredNotRetried) {
  GateParams dead;
  dead.vdd = 0.3;  // Below both thresholds: the output never switches.
  DriverTableStore store;
  obs::set_metrics_enabled(true);
  const obs::Counter& steps = obs::metrics().counter("sim.nonlinear.steps");
  const obs::Counter& fills = obs::metrics().counter("thevenin.tables");
  const std::uint64_t fills0 = fills.value(), steps0 = steps.value();
  auto failure = [&] {
    try {
      driver_table(dead, true, {}, store);
    } catch (const std::exception& e) {
      return status_from_exception(e);
    }
    return Status::Ok();
  };
  const Status first = failure();
  EXPECT_FALSE(first.ok());
  const std::uint64_t after_first = steps.value();
  EXPECT_GT(after_first, steps0);  // The first lookup simulated.
  const Status second = failure();
  EXPECT_EQ(steps.value(), after_first);  // No new simulation.
  obs::set_metrics_enabled(false);
  EXPECT_EQ(second.code(), first.code());
  EXPECT_EQ(second.message(), first.message());
  EXPECT_EQ(fills.value(), fills0);
  EXPECT_EQ(store.size(), 0u);
}

// ---------------------------------------------------------------------------
// Chaos determinism across job counts
// ---------------------------------------------------------------------------

TEST(FaultDeterminism, IdenticalReportsForFixedSeedAtJobs1And8) {
  const auto nets = random_population(10, 41);
  const char* specs[] = {"all:0.15", "newton:0.05", "cache:0.6"};
  for (const char* spec : specs) {
    std::string text1, text8, json1, json8;
    {
      ScopedFaults faults(spec, 5);
      const BatchResult r = BatchAnalyzer(chaos_options(1)).analyze(nets);
      text1 = r.to_text();
      json1 = r.to_json();
    }
    {
      ScopedFaults faults(spec, 5);
      const BatchResult r = BatchAnalyzer(chaos_options(8)).analyze(nets);
      text8 = r.to_text();
      json8 = r.to_json();
    }
    EXPECT_EQ(text1, text8) << spec;
    EXPECT_EQ(json1, json8) << spec;
  }
}

TEST(FaultDeterminism, ZeroRateSpecMatchesCleanRunByteForByte) {
  const auto nets = random_population(6, 43);
  std::string clean_text, clean_json;
  {
    const BatchResult r = BatchAnalyzer(chaos_options(2)).analyze(nets);
    clean_text = r.to_text();
    clean_json = r.to_json();
  }
  {
    ScopedFaults faults("all:0", 1);
    EXPECT_FALSE(fault::enabled());  // Zero rates disarm entirely.
    const BatchResult r = BatchAnalyzer(chaos_options(2)).analyze(nets);
    EXPECT_EQ(r.to_text(), clean_text);
    EXPECT_EQ(r.to_json(), clean_json);
  }
}

// ---------------------------------------------------------------------------
// Status taxonomy
// ---------------------------------------------------------------------------

TEST(StatusTaxonomy, ExceptionMappingAndTransience) {
  EXPECT_EQ(status_from_exception(DeadlineError("d")).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(status_from_exception(NumericError("n")).code(),
            StatusCode::kNumericError);
  EXPECT_EQ(status_from_exception(TransientError("t")).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(status_from_exception(std::invalid_argument("i")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(status_from_exception(std::runtime_error("r")).code(),
            StatusCode::kInternal);
}

}  // namespace
}  // namespace dn
