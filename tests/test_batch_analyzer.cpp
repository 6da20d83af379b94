// Batch engine, thread pool, shared characterization cache, and the
// Status-based error paths (clarinet/batch_analyzer.*, util/thread_pool.*,
// clarinet/characterization_cache.*, util/status.*).
#include "clarinet/batch_analyzer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <sstream>
#include <thread>
#include <vector>

#include "rcnet/random_nets.hpp"
#include "rcnet/spef.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

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
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryItemExactlyOnce) {
  for (const int jobs : {1, 2, 8}) {
    ThreadPool pool(jobs);
    std::vector<std::atomic<int>> hits(257);
    pool.parallel_for(hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "jobs=" << jobs;
  }
}

TEST(ThreadPool, InlineModeCreatesNoThreads) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 0);
  const auto caller = std::this_thread::get_id();
  pool.parallel_for(4, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPool, PropagatesFirstException) {
  for (const int jobs : {1, 4}) {
    ThreadPool pool(jobs);
    EXPECT_THROW(pool.parallel_for(16,
                                   [&](std::size_t i) {
                                     if (i == 7)
                                       throw std::runtime_error("boom");
                                   }),
                 std::runtime_error)
        << "jobs=" << jobs;
    // Pool stays usable after an exception.
    std::atomic<int> count{0};
    pool.parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 8);
  }
}

TEST(ThreadPool, BackToBackBatches) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<long> sum{0};
    pool.parallel_for(100, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i));
    });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(ThreadPool, ConcurrentCallersSerializeWithoutDeadlock) {
  // The shared characterization pool receives parallel_for calls from
  // SEVERAL net workers at once (batch_analyzer.cpp char_pool_). Queued
  // callers must each get their turn — a missed wakeup on the
  // batch-slot handoff hangs the whole batch engine.
  ThreadPool pool(4);
  constexpr int kCallers = 6, kRounds = 25;
  std::atomic<long> total{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r)
        pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), long(kCallers) * kRounds * 8);
}

// ---------------------------------------------------------------------------
// CharacterizationCache under contention
// ---------------------------------------------------------------------------

TEST(CharacterizationCache, HammeredFromManyThreadsCachesEachKeyOnce) {
  CharacterizationCache cache(fast_config().table_spec);

  // 6 distinct receiver conditions: 3 sizes x 2 victim directions.
  const std::vector<double> sizes{1.0, 2.0, 4.0};
  constexpr int kThreads = 8;
  constexpr int kRounds = 25;

  std::vector<std::vector<const AlignmentTable*>> seen(
      kThreads, std::vector<const AlignmentTable*>(sizes.size() * 2, nullptr));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t s = 0; s < sizes.size(); ++s) {
          for (const bool rising : {false, true}) {
            GateParams rcv;
            rcv.size = sizes[s];
            const AlignmentTable* table = cache.table_for(rcv, rising);
            ASSERT_NE(table, nullptr);
            auto& slot = seen[static_cast<std::size_t>(t)]
                             [2 * s + (rising ? 1 : 0)];
            if (slot == nullptr) slot = table;
            // Stable pointer: later lookups (and insertions of other
            // keys) never move it.
            EXPECT_EQ(slot, table);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // A receiver that cannot switch: its fill fails, and the failure is
  // stored for the key like a table.
  GateParams dead;
  dead.vdd = 0.3;
  std::vector<Status> dead_seen(kThreads);
  threads.clear();
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      dead_seen[static_cast<std::size_t>(t)] =
          cache.try_table_for(dead, true).status();
    });
  for (auto& th : threads) th.join();

  // Only finished tables count: the failed key is not a table.
  EXPECT_EQ(cache.tables_cached(), sizes.size() * 2);
  for (const Status& st : dead_seen) {
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.message(), dead_seen[0].message());
  }
  // Exactly one characterization per distinct condition, the failed one
  // included, no matter the contention; everything else was a hit.
  EXPECT_EQ(cache.misses(), sizes.size() * 2 + 1);
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads) * kRounds * sizes.size() * 2 +
                kThreads);
  // All threads resolved each key to the same table object.
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
}

// ---------------------------------------------------------------------------
// BatchAnalyzer
// ---------------------------------------------------------------------------

TEST(BatchAnalyzer, BitIdenticalToSequentialAnalyzer) {
  const auto nets = random_population(10, 20010618);

  // Reference: the plain sequential front end, fresh cache.
  NoiseAnalyzer seq(fast_config());
  std::vector<DelayNoiseResult> expected;
  expected.reserve(nets.size());
  for (const auto& net : nets)
    expected.push_back(seq.try_analyze(net).value());

  BatchOptions opts;
  opts.analyzer = fast_config();
  opts.jobs = 4;
  BatchAnalyzer batch(opts);
  const BatchResult got = batch.analyze(nets);

  ASSERT_EQ(got.nets.size(), nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    ASSERT_TRUE(got.nets[i].status.ok()) << got.nets[i].status.to_string();
    const DelayNoiseResult& a = expected[i];
    const DelayNoiseResult& b = got.nets[i].result;
    // Bit-identical, not approximately equal: the batch engine must not
    // perturb the numerics, only the scheduling.
    EXPECT_EQ(a.nominal_t50, b.nominal_t50) << "net " << i;
    EXPECT_EQ(a.noisy_t50, b.noisy_t50) << "net " << i;
    EXPECT_EQ(a.nominal_input_t50, b.nominal_input_t50) << "net " << i;
    EXPECT_EQ(a.noisy_input_t50, b.noisy_input_t50) << "net " << i;
    EXPECT_EQ(a.rth, b.rth) << "net " << i;
    EXPECT_EQ(a.holding_r, b.holding_r) << "net " << i;
    EXPECT_EQ(a.rtr_iterations, b.rtr_iterations) << "net " << i;
    EXPECT_EQ(a.alignment.t_peak, b.alignment.t_peak) << "net " << i;
    EXPECT_EQ(a.alignment.align_voltage, b.alignment.align_voltage)
        << "net " << i;
    EXPECT_EQ(a.composite.params.height, b.composite.params.height)
        << "net " << i;
    EXPECT_EQ(a.composite.params.width, b.composite.params.width)
        << "net " << i;
  }
  EXPECT_EQ(batch.cache()->tables_cached(), seq.cache()->tables_cached());
}

TEST(BatchAnalyzer, OutputByteIdenticalAcrossJobCounts) {
  const auto nets = random_population(8, 424242);
  std::string ref_text, ref_json;
  for (const int jobs : {1, 3, 8}) {
    BatchOptions opts;
    opts.analyzer = fast_config();
    opts.jobs = jobs;
    opts.top_k = 3;
    BatchAnalyzer engine(opts);
    const BatchResult r = engine.analyze(nets);
    if (ref_text.empty()) {
      ref_text = r.to_text();
      ref_json = r.to_json();
      EXPECT_EQ(r.worst.size(), 3u);
    } else {
      EXPECT_EQ(r.to_text(), ref_text) << "jobs=" << jobs;
      EXPECT_EQ(r.to_json(), ref_json) << "jobs=" << jobs;
    }
  }
}

TEST(BatchAnalyzer, RecordsPerNetFailuresAndKeepsGoing) {
  auto nets = random_population(4, 7);
  CoupledNet bad = example_coupled_net(1);
  bad.couplings.push_back({99, 0, 0, 1e-15});  // Aggressor 99 doesn't exist.
  nets.insert(nets.begin() + 1, bad);

  BatchOptions opts;
  opts.analyzer = fast_config();
  opts.jobs = 2;
  BatchAnalyzer engine(opts);
  const BatchResult r = engine.analyze(nets);

  ASSERT_EQ(r.nets.size(), 5u);
  EXPECT_FALSE(r.nets[1].status.ok());
  EXPECT_EQ(r.nets[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.stats.failed, 1u);
  EXPECT_EQ(r.stats.analyzed, 4u);
  for (const std::size_t w : r.worst) EXPECT_NE(w, 1u);  // Failed net unranked.
  EXPECT_NE(r.to_text().find("FAILED"), std::string::npos);
}

TEST(BatchAnalyzer, WorstKRanksByCombinedDelayNoise) {
  const auto nets = random_population(6, 99);
  BatchOptions opts;
  opts.analyzer = fast_config();
  opts.jobs = 2;
  opts.top_k = 6;
  BatchAnalyzer engine(opts);
  const BatchResult r = engine.analyze(nets);
  ASSERT_EQ(r.worst.size(), 6u);
  for (std::size_t i = 1; i < r.worst.size(); ++i)
    EXPECT_GE(r.nets[r.worst[i - 1]].result.delay_noise(),
              r.nets[r.worst[i]].result.delay_noise());
}

TEST(BatchAnalyzer, FinalizeRanksSlotsByTheirReports) {
  // The resident server stores each slot's report without its
  // DelayNoiseResult, so the ranking must read the reports alone.
  BatchResult r;
  const double dn_ps[] = {3.0, 9.0, 1.0, 5.0};
  for (std::size_t i = 0; i < 4; ++i) {
    BatchNetResult nr;
    nr.index = i;
    nr.name = "n" + std::to_string(i);
    nr.report.delay_noise_ps = dn_ps[i];
    r.nets.push_back(nr);
  }
  finalize_batch_result(r, 3, false);
  EXPECT_EQ(r.worst, (std::vector<std::size_t>{1, 3, 0}));
  EXPECT_EQ(r.stats.analyzed, 4u);
}

// ---------------------------------------------------------------------------
// Status error paths
// ---------------------------------------------------------------------------

TEST(Status, SpefMalformedInputComesBackAsStatus) {
  std::istringstream garbage("*SPEF \"dnoise-subset-1\"\n*D_NET v *VICTIM\n"
                             "*CAP\nv:0 not-a-number\n*END\n");
  const StatusOr<CoupledNet> r = try_read_spef(garbage);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("spef"), std::string::npos);

  std::istringstream wrong_dialect("*SPEF \"other\"\n");
  EXPECT_EQ(try_read_spef(wrong_dialect).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(try_read_spef_file("/nonexistent/x.spef").status().code(),
            StatusCode::kNotFound);
}

TEST(Status, SpefRoundTripStillWorksThroughStatusApi) {
  const CoupledNet net = example_coupled_net(2);
  std::ostringstream os;
  write_spef(os, net);
  std::istringstream is(os.str());
  const StatusOr<CoupledNet> back = try_read_spef(is);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->aggressors.size(), net.aggressors.size());
  EXPECT_NEAR(back->total_coupling_cap(), net.total_coupling_cap(), 1e-21);
}

TEST(Status, AnalyzerReturnsStatusInsteadOfThrowing) {
  NoiseAnalyzer analyzer(fast_config());
  CoupledNet bad = example_coupled_net(1);
  bad.couplings.push_back({42, 0, 0, 1e-15});
  const StatusOr<DelayNoiseResult> r = analyzer.try_analyze(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Status, BasicsAndToString) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().to_string(), "OK");
  const Status s = Status::InvalidArgument("bad deck");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.to_string(), "INVALID_ARGUMENT: bad deck");
  EXPECT_THROW(s.throw_if_error(), std::runtime_error);
  const StatusOr<int> v = 42;
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

// ---------------------------------------------------------------------------
// Structured report and the shared analyzer surface
// ---------------------------------------------------------------------------

TEST(DelayNoiseReport, TextMatchesLegacyPrintReport) {
  NoiseAnalyzer analyzer(fast_config());
  const CoupledNet net = example_coupled_net(1);
  const DelayNoiseResult r = analyzer.try_analyze(net).value();
  const DelayNoiseReport report = DelayNoiseReport::from(net, r);
  std::ostringstream streamed;
  report.to_text(streamed);
  EXPECT_EQ(report.to_text(), streamed.str());
}

TEST(DelayNoiseReport, JsonCarriesTheKeyFields) {
  NoiseAnalyzer analyzer(fast_config());
  const CoupledNet net = example_coupled_net(1);
  const DelayNoiseResult r = analyzer.try_analyze(net).value();
  const std::string json = DelayNoiseReport::from(net, r, "n1").to_json();
  for (const char* key :
       {"\"net\":\"n1\"", "\"victim_driver\":\"INV\"", "\"rth_ohm\":",
        "\"holding_r_ohm\":", "\"pulse_height_v\":", "\"align_voltage_v\":",
        "\"input_delay_noise_ps\":", "\"delay_noise_ps\":"})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(NoiseAnalyzer, SharedCacheAndStableTablePointers) {
  auto cache =
      std::make_shared<CharacterizationCache>(fast_config().table_spec);
  const NoiseAnalyzer a(fast_config(), cache);
  const NoiseAnalyzer b(fast_config(), cache);

  const CoupledNet net = example_coupled_net(1);
  const AlignmentTable* t1 =
      cache->table_for(net.victim.receiver, net.victim.output_rising);
  ASSERT_TRUE(a.try_analyze(net).ok());
  ASSERT_TRUE(b.try_analyze(net).ok());
  EXPECT_EQ(cache->tables_cached(), 1u);  // Shared: characterized once.

  // Insertions of new keys never invalidate earlier pointers.
  GateParams other = net.victim.receiver;
  other.size = 8.0;
  cache->table_for(other, true);
  cache->table_for(other, false);
  EXPECT_EQ(cache->tables_cached(), 3u);
  EXPECT_EQ(cache->table_for(net.victim.receiver, net.victim.output_rising),
            t1);
}

}  // namespace
}  // namespace dn
