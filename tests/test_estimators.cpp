// Tests for the estimator / table additions: Elmore moments (validated
// against the transient simulator), the bus topology builder,
// the pre-characterized Thevenin tables, and the table store that holds
// them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>

#include "ceff/thevenin_table.hpp"
#include "devices/gate_library.hpp"
#include "rcnet/elmore.hpp"
#include "sim/linear_sim.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

TEST(Elmore, SingleRcIsExact) {
  RcTree t;
  t.num_nodes = 2;
  t.res.push_back({0, 1, 1000.0});
  t.caps.push_back({1, 100 * fF});
  t.sink = 1;
  EXPECT_NEAR(elmore_delay(t, 1), 1000.0 * 100 * fF, 1e-18);
}

TEST(Elmore, LineMatchesClosedForm) {
  // Uniform line: Elmore to the end = sum_k k*r*c.
  const int n = 8;
  const RcTree t = make_line(n, 800.0, 80 * fF);
  const double r = 800.0 / n, c = 80 * fF / n;
  double expect = 0.0;
  for (int k = 1; k <= n; ++k) expect += k * r * c;
  EXPECT_NEAR(elmore_delay(t, n), expect, 1e-15);
  // Monotone along the line.
  for (int k = 1; k < n; ++k)
    EXPECT_LT(elmore_delay(t, k), elmore_delay(t, k + 1));
}

TEST(Elmore, ExtraCapAddsDelay) {
  const RcTree t = make_line(5, 500.0, 50 * fF);
  std::vector<double> extra(6, 0.0);
  extra[5] = 30 * fF;
  EXPECT_GT(elmore_delay(t, 5, extra), elmore_delay(t, 5) + 10 * ps);
}

TEST(Elmore, BoundsSimulated50PercentDelay) {
  // Step-driven line: Elmore is a pessimistic bound on the simulated 50%
  // delay, and stays within a factor of two of it.
  const RcTree t = make_line(10, 2 * kOhm, 200 * fF);
  Circuit ckt;
  const auto map = t.instantiate(ckt, "n");
  ckt.add_vsource(map[0], kGround, Pwl::ramp(0.0, 1 * ps, 0.0, 1.0));
  LinearSim sim(ckt);
  const auto res = sim.try_run({0.0, 5 * ns, 1 * ps}).value();
  for (int node : {5, 10}) {
    const double t50 =
        *res.waveform(map[static_cast<std::size_t>(node)]).crossing(0.5, true);
    const double el = elmore_delay(t, node);
    EXPECT_LT(t50, el) << "node " << node;  // Elmore over-estimates.
    EXPECT_GT(t50, 0.5 * el) << "node " << node;
  }
}

TEST(Elmore, RejectsLoopsAndBadSizes) {
  RcTree loop = make_line(2, 200.0, 20 * fF);
  loop.res.push_back({0, 2, 100.0});  // Creates a resistor loop.
  EXPECT_THROW(tree_moments(loop), std::invalid_argument);
  const RcTree t = make_line(2, 200.0, 20 * fF);
  EXPECT_THROW(tree_moments(t, std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(MakeBus, TopologyAndCoupling) {
  const CoupledNet bus = make_bus(5, 6, 1 * kOhm, 60 * fF, 30 * fF);
  EXPECT_EQ(bus.aggressors.size(), 4u);  // 5 lanes, middle is the victim.
  // Only the two adjacent lanes couple.
  EXPECT_NEAR(bus.total_coupling_cap(), 2 * 30 * fF, 1e-19);
  EXPECT_NO_THROW(bus.validate());
  EXPECT_THROW(make_bus(4, 6, 1 * kOhm, 60 * fF, 30 * fF),
               std::invalid_argument);
  EXPECT_THROW(make_bus(1, 6, 1 * kOhm, 60 * fF, 30 * fF),
               std::invalid_argument);
}

TEST(TheveninTable, GridPointsMatchDirectFit) {
  GateParams g;
  g.size = 2.0;
  const std::vector<double> slews{100 * ps, 300 * ps};
  const std::vector<double> loads{20 * fF, 80 * fF};
  const TheveninTable tbl =
      TheveninTable::characterize(g, true, slews, loads);
  // Lookup exactly at a grid point reproduces the direct fit.
  const TheveninModel m = tbl.lookup(100 * ps, 20 * fF, 100 * ps);
  const Pwl vin = driver_input_ramp(g, 100 * ps, true, 100 * ps);
  const TheveninModel direct = fit_thevenin(g, vin, 20 * fF).model;
  EXPECT_NEAR(m.rth, direct.rth, 1e-6 * direct.rth);
  EXPECT_NEAR(m.tr, direct.tr, 1e-6 * direct.tr);
  EXPECT_NEAR(m.t0, direct.t0, 1e-15);
  EXPECT_TRUE(m.rising());
}

TEST(TheveninTable, InterpolationIsBetweenCorners) {
  GateParams g;
  const TheveninTable tbl = TheveninTable::characterize(
      g, false, {100 * ps, 300 * ps}, {20 * fF, 80 * fF});
  bool off_grid = true;
  const Crossings mid = tbl.crossings(200 * ps, 50 * fF, &off_grid);
  EXPECT_FALSE(off_grid);
  for (double Crossings::*t : {&Crossings::t10, &Crossings::t50,
                               &Crossings::t90}) {
    const double c[4] = {tbl.at(0, 0).*t, tbl.at(0, 1).*t, tbl.at(1, 0).*t,
                         tbl.at(1, 1).*t};
    EXPECT_GE(mid.*t, *std::min_element(c, c + 4));
    EXPECT_LE(mid.*t, *std::max_element(c, c + 4));
  }
  // Crossings grow with load and slew, so the middle is strictly inside.
  EXPECT_LT(tbl.at(0, 0).t50, mid.t50);
  EXPECT_LT(mid.t50, tbl.at(1, 1).t50);
  EXPECT_FALSE(tbl.lookup(200 * ps, 50 * fF, 0.0).rising());
}

TEST(TheveninTable, QueriesClampToGrid) {
  GateParams g;
  const TheveninTable tbl =
      TheveninTable::characterize(g, true, {100 * ps, 300 * ps},
                                  {20 * fF, 80 * fF});
  // Slews off the axis clamp to its ends.
  bool off_grid = false;
  EXPECT_EQ(tbl.crossings(1 * ps, 20 * fF, &off_grid).t50, tbl.at(0, 0).t50);
  EXPECT_TRUE(off_grid);
  EXPECT_EQ(tbl.crossings(1 * ns, 80 * fF).t50, tbl.at(1, 1).t50);
  // Loads past the axis extrapolate linearly from the end segment.
  const double slope = (tbl.at(0, 1).t50 - tbl.at(0, 0).t50) / (60 * fF);
  const Crossings far = tbl.crossings(100 * ps, 140 * fF, &off_grid);
  EXPECT_TRUE(off_grid);
  EXPECT_NEAR(far.t50, tbl.at(0, 1).t50 + 60 * fF * slope, 1e-18);
  // Both count as clamped lookups.
  obs::set_metrics_enabled(true);
  const obs::Counter& lookups = obs::metrics().counter("ceff.table_lookups");
  const obs::Counter& clamped = obs::metrics().counter("ceff.table_clamped");
  const std::uint64_t n0 = lookups.value(), c0 = clamped.value();
  (void)tbl.lookup(50 * ps, 40 * fF, 0.0);
  (void)tbl.lookup(200 * ps, 140 * fF, 0.0);
  (void)tbl.lookup(200 * ps, 40 * fF, 0.0);
  obs::set_metrics_enabled(false);
  EXPECT_EQ(lookups.value() - n0, 3u);
  EXPECT_EQ(clamped.value() - c0, 2u);
}

TEST(TheveninTable, LookupReanchorsTiming) {
  GateParams g;
  const TheveninTable tbl =
      TheveninTable::characterize(g, true, {100 * ps, 300 * ps},
                                  {20 * fF, 80 * fF});
  // The model moves with the input and is otherwise unchanged.
  const TheveninModel a = tbl.lookup(100 * ps, 20 * fF, 0.0);
  const TheveninModel b = tbl.lookup(100 * ps, 20 * fF, 1 * ns);
  EXPECT_NEAR(b.t0 - a.t0, 1 * ns, 1e-15);
  EXPECT_NEAR(b.rth, a.rth, 1e-6 * a.rth);
}

TEST(TheveninTable, BadAxesThrow) {
  GateParams g;
  EXPECT_THROW(TheveninTable::characterize(g, true, {}, {20 * fF}),
               std::invalid_argument);
  EXPECT_THROW(
      TheveninTable::characterize(g, true, {2e-10, 1e-10}, {20 * fF}),
      std::invalid_argument);
  EXPECT_THROW(TheveninTable::characterize(g, true, {1e-10}, {0.0, 20 * fF}),
               std::invalid_argument);
  EXPECT_THROW(TheveninTable::characterize(g, true, {1e-10, HUGE_VAL},
                                           {20 * fF}),
               std::invalid_argument);
}

// Inside the grid each axis interpolates over up to four points, so a
// table whose crossings are quadratic in slew and load reproduces them
// between grid points, on unevenly spaced axes.
TEST(TheveninTable, InterpolationIsExactForQuadratics) {
  const std::vector<double> slews{10 * ps, 30 * ps, 70 * ps, 150 * ps,
                                  400 * ps};
  const std::vector<double> loads{1 * fF, 5 * fF, 20 * fF, 60 * fF};
  auto t50 = [](double s, double c) {
    return 20 * ps + 0.3 * s + 0.4 * s * s / ns + 2e3 * c +
           3e18 * c * c + 1e13 * s * c;
  };
  std::ostringstream os;
  os.precision(17);
  os << "dnoise-thevenin-table 3\n";
  write_gate(os, GateParams{});
  os << "1 0 0\n" << slews.size() << ' ' << loads.size() << '\n';
  for (double s : slews) os << s << ' ';
  os << '\n';
  for (double c : loads) os << c << ' ';
  os << '\n';
  for (double s : slews)
    for (double c : loads)
      os << 0.5 * t50(s, c) << ' ' << t50(s, c) << ' ' << 2 * t50(s, c)
         << '\n';
  std::istringstream is(os.str());
  const TheveninTable tbl = TheveninTable::load(is);
  for (const double s : {12 * ps, 45 * ps, 100 * ps, 222 * ps, 399 * ps})
    for (const double c : {1.5 * fF, 9 * fF, 33 * fF, 59 * fF}) {
      bool off_grid = true;
      const Crossings x = tbl.crossings(s, c, &off_grid);
      EXPECT_FALSE(off_grid);
      EXPECT_NEAR(x.t50, t50(s, c), 1e-6 * t50(s, c)) << s << ' ' << c;
      EXPECT_NEAR(x.t90, 2 * t50(s, c), 2e-6 * t50(s, c));
    }
  // Grid points come back exactly.
  EXPECT_EQ(tbl.crossings(70 * ps, 20 * fF).t50, tbl.at(2, 2).t50);
}

// The store's default axes against a direct fit at the exact load, over
// the slews and loads the flow sees, drawn uniformly like the random
// nets' input slews: crossing times are smooth in slew and load, so the
// interpolated t50 stays within a fraction of a picosecond.
TEST(TheveninTable, LookupTracksDirectFitAcrossSizes) {
  Rng rng(11);
  for (const double size : {1.0, 2.0, 4.0, 8.0}) {
    for (const bool rising : {true, false}) {
      GateParams g;
      g.size = size;
      const TheveninTable& tbl = driver_table(g, rising, {});
      double sum = 0.0, worst = 0.0;
      const int points = 50;
      for (int i = 0; i < points; ++i) {
        const double slew = rng.uniform(40 * ps, 400 * ps);
        const double cload = rng.uniform(10 * fF, 400 * fF);
        const double t_start = 300 * ps;
        const TheveninModel looked = tbl.lookup(slew, cload, t_start);
        const Pwl vin = driver_input_ramp(g, slew, rising, t_start);
        const TheveninModel direct = fit_thevenin(g, vin, cload).model;
        const double err = std::abs(*looked.response_crossing(0.5, cload) -
                                    *direct.response_crossing(0.5, cload));
        sum += err;
        worst = std::max(worst, err);
      }
      const std::string where = "X" + std::to_string(static_cast<int>(size)) +
                                (rising ? " rising" : " falling");
      EXPECT_LE(sum / points, 0.5 * ps) << where;
      EXPECT_LE(worst, 4 * ps) << where;
    }
  }
}

TEST(TheveninTable, EveryStandardCellFillsBothDirections) {
  const GateLibrary lib = GateLibrary::standard();
  DriverTableStore store;
  obs::set_metrics_enabled(true);
  const obs::Counter& fills = obs::metrics().counter("thevenin.tables");
  const std::uint64_t fills0 = fills.value();
  for (const std::string& name : lib.names())
    for (const bool rising : {true, false}) {
      const TheveninTable& tbl =
          driver_table(lib.cell(name), rising, {}, store);
      EXPECT_EQ(tbl.output_rising(), rising) << name;
      EXPECT_EQ(tbl.slews().size() * tbl.cloads().size(), 140u) << name;
      EXPECT_TRUE(tbl.lookup(150 * ps, 60 * fF, 0.0).rth > 0.0) << name;
    }
  obs::set_metrics_enabled(false);
  EXPECT_EQ(fills.value() - fills0, 2 * lib.size());
}

// A driver sized off the library (an ECO resize, a SPEF *DRIVER size)
// costs one fill of its own, reused after that, and its model sits
// between its neighbors' in strength. Sizes 0.1 and 0.2 cannot switch
// the heaviest table loads within the first reference-sim tail, in
// either direction; their fills still complete.
TEST(TheveninTable, OffLibrarySizeFillsOnceAndOrdersByStrength) {
  DriverTableStore store;
  obs::set_metrics_enabled(true);
  const obs::Counter& fills = obs::metrics().counter("thevenin.tables");
  const std::uint64_t fills0 = fills.value();
  auto t50_of = [&](double size, bool rising) {
    GateParams g;
    g.size = size;
    const TheveninModel m =
        driver_table(g, rising, {}, store).lookup(120 * ps, 80 * fF, 0.0);
    return *m.response_crossing(0.5, 80 * fF);
  };
  for (const bool rising : {false, true}) {
    const double t01 = t50_of(0.1, rising), t02 = t50_of(0.2, rising);
    const double t2 = t50_of(2.0, rising), t33 = t50_of(3.3, rising),
                 t4 = t50_of(4.0, rising);
    EXPECT_EQ(t50_of(3.3, rising), t33);
    EXPECT_LT(t4, t33);
    EXPECT_LT(t33, t2);
    EXPECT_LT(t2, t02);
    EXPECT_LT(t02, t01);
  }
  EXPECT_EQ(fills.value() - fills0, 10u);
  obs::set_metrics_enabled(false);
}

std::string table_text(const TheveninTable& tbl) {
  std::ostringstream os;
  tbl.save(os);
  return os.str();
}

// Eight threads request one shared key and one key of their own: every
// key fills once, every thread sees the same table, and each table holds
// the bits a fresh store fills.
TEST(TableStore, ConcurrentRequestsFillEachKeyOnce) {
  constexpr int kThreads = 8;
  auto key_gate = [](int t) {
    GateParams g;
    g.size = t < 0 ? 2.0 : 1.0 + 0.5 * t;
    return g;
  };
  DriverTableStore store;
  obs::set_metrics_enabled(true);
  const obs::Counter& fills = obs::metrics().counter("thevenin.tables");
  const std::uint64_t fills0 = fills.value();
  std::vector<const TheveninTable*> shared(kThreads), own(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      const GateParams mine = key_gate(t);
      if (t % 2) own[t] = &driver_table(mine, t % 4 == 1, {}, store);
      shared[t] = &driver_table(key_gate(-1), true, {}, store);
      if (t % 2 == 0) own[t] = &driver_table(mine, t % 4 == 0, {}, store);
    });
  for (auto& th : threads) th.join();
  obs::set_metrics_enabled(false);
  EXPECT_EQ(fills.value() - fills0, kThreads + 1u);
  EXPECT_EQ(store.size(), kThreads + 1u);
  DriverTableStore fresh;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(shared[t], shared[0]);
    EXPECT_EQ(own[t],
              &driver_table(key_gate(t), own[t]->output_rising(), {}, store));
    EXPECT_EQ(table_text(*own[t]),
              table_text(driver_table(key_gate(t), own[t]->output_rising(),
                                      {}, fresh)));
  }
  EXPECT_EQ(table_text(*shared[0]),
            table_text(driver_table(key_gate(-1), true, {}, fresh)));
  // The fit options are part of the key.
  TheveninFitOptions fixed;
  fixed.stale_jacobian_iters = 0;
  EXPECT_NE(&driver_table(key_gate(-1), true, fixed, store), shared[0]);
}

// A failing fill runs once however many threads ask: each gets the one
// stored status, and the failure is not a table.
TEST(TableStore, ConcurrentRequestsShareOneFailure) {
  constexpr int kThreads = 8;
  TableStore<int, int> store;
  std::atomic<int> fills{0};
  std::vector<Status> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      seen[t] = store
                    .get(7,
                         [&]() -> int {
                           fills.fetch_add(1);
                           throw NumericError("fill failed");
                         })
                    .status();
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(fills.load(), 1);
  for (const Status& s : seen) {
    EXPECT_EQ(s.code(), StatusCode::kNumericError);
    EXPECT_EQ(s.message(), "fill failed");
  }
  EXPECT_EQ(store.size(), 0u);
  // The failure is the key's outcome: a later fill never runs.
  TableFound found{};
  EXPECT_FALSE(store.get(7, [] { return 1; }, &found).ok());
  EXPECT_EQ(found, TableFound::kReady);
  EXPECT_TRUE(store.get(8, [] { return 2; }, &found).ok());
  EXPECT_EQ(found, TableFound::kFilled);
  const int* stored = store.get(8, [] { return 3; }, &found).value();
  EXPECT_EQ(*stored, 2);
  EXPECT_EQ(found, TableFound::kReady);
  EXPECT_EQ(store.size(), 1u);
}

}  // namespace
}  // namespace dn
