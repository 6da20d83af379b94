// eco_serve: one resident server::Session over a Design::random ring with
// durability on, driven by one closed-loop client through handle_line.
//
// Setup loads the design and runs the cold full `analyze`. The client
// then sends a seeded mix of update_net / update_driver edits, each
// followed by `analyze`; one ECO is that pair, timed from the edit's
// handle_line to the analyze response's dump(). The ECO sequence is
// replayed on a second, identically prepared session. The final
// incremental report must be byte-identical to a fresh Session's cold
// analyze of the same edited design.
//
// Traced run: a fixed number of ECOs, each sent to two identically
// prepared sessions, one untraced and one with spans around each
// handle_line (by verb); the library's own batch.run spans give the
// engine time inside each analyze.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

#include "layers.hpp"
#include "server/session.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/statistics.hpp"
#include "util/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dn;
namespace fs = std::filesystem;

namespace {

struct EcoSizes {
  int nets = 0;       // Ring size.
  int neighbors = 2;  // Couplings per net on the ring.
  int min_ecos = 0;   // Lower bound on ECOs per run (p90 needs >= 100).
};

EcoSizes eco_sizes(const Args& args) {
  return args.tiny ? EcoSizes{8, 2, 4} : EcoSizes{80, 2, 100};
}

bool ok_response(const json::Value& resp) {
  const json::Value* ok = resp.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

/// load_design reads its seed as a JSON int, hence the fold into range.
std::string load_request(const Args& args, const EcoSizes& sz) {
  return "{\"verb\":\"load_design\",\"design\":{\"random\":{\"seed\":" +
         std::to_string(args.seed % 1000000007u) +
         ",\"nets\":" + std::to_string(sz.nets) +
         ",\"neighbors\":" + std::to_string(sz.neighbors) + "}}}";
}

const std::string kAnalyze = "{\"verb\":\"analyze\"}";

/// Parent of every session's state directory; removed when a run ends.
fs::path state_root(const Args& args) {
  return fs::path(args.work_dir) / "eco-state";
}

/// A durable session in a fresh state directory, design loaded and cold
/// analyzed: the untimed preparation.
std::unique_ptr<server::Session> start_server(const Args& args,
                                              const EcoSizes& sz, int index,
                                              Outcome& out) {
  const fs::path dir = state_root(args) / std::to_string(index);
  fs::remove_all(dir);
  fs::create_directories(dir);
  server::DurabilityOptions dur;
  dur.state_dir = dir.string();
  auto session = std::make_unique<server::Session>(
      default_config(analysis_jobs()), dur);
  out.check(session->start_durability().ok(), "eco: durability start");
  out.check(ok_response(session->handle_line(load_request(args, sz))),
            "eco: load_design");
  out.check(ok_response(session->handle_line(kAnalyze)), "eco: cold analyze");
  return session;
}

/// The seeded edit stream: alternating wire scalings and driver resizes
/// on random nets of the ring.
std::vector<std::string> edit_stream(const Args& args, const EcoSizes& sz,
                                     int n) {
  Rng rng(args.seed ^ 0x9e3779b97f4a7c15ULL);
  const double sizes[] = {1.0, 2.0, 4.0};
  std::vector<std::string> edits;
  for (int e = 0; e < n; ++e) {
    const std::string net = "n" + std::to_string(rng.uniform_int(0, sz.nets - 1));
    char buf[160];
    if (e % 2 == 0)
      std::snprintf(buf, sizeof buf,
                    "{\"verb\":\"update_net\",\"net\":\"%s\",\"scale_r\":%.17g,"
                    "\"scale_c\":%.17g}",
                    net.c_str(), rng.uniform(0.85, 1.15),
                    rng.uniform(0.85, 1.15));
    else
      std::snprintf(buf, sizeof buf,
                    "{\"verb\":\"update_driver\",\"net\":\"%s\",\"size\":%g}",
                    net.c_str(), sizes[rng.uniform_int(0, 2)]);
    edits.push_back(buf);
  }
  return edits;
}

/// One ECO round trip's measurements.
struct Eco {
  double ms = 0.0;          // Edit + analyze, handle_line through dump().
  double analyze_ms = 0.0;  // The analyze request alone.
  double reanalyzed = 0.0;
  double response_bytes = 0.0;  // Analyze response.
  std::string report;           // Analyze response's report, dumped.
};

Eco run_eco(server::Session& session, const std::string& edit, Outcome& out) {
  Eco eco;
  const double t0 = now_s();
  double t1 = 0.0;
  std::string analyze_bytes;
  json::Value analyzed;
  {
    obs::TraceSpan span("eco", "perfbench");
    {
      obs::TraceSpan edit_span("server.edit", "perfbench");
      const json::Value resp = session.handle_line(edit);
      (void)resp.dump();
      ++out.attempted;
      if (!ok_response(resp)) ++out.failed;
    }
    t1 = now_s();
    obs::TraceSpan analyze_span("server.analyze", "perfbench");
    analyzed = session.handle_line(kAnalyze);
    analyze_bytes = analyzed.dump();
    ++out.attempted;
    if (!ok_response(analyzed)) ++out.failed;
  }
  const double t2 = now_s();
  eco.ms = (t2 - t0) * 1e3;
  eco.analyze_ms = (t2 - t1) * 1e3;
  eco.response_bytes = static_cast<double>(analyze_bytes.size());
  if (const json::Value* result = analyzed.find("result")) {
    if (const json::Value* n = result->find("reanalyzed"))
      eco.reanalyzed = n->as_number();
    if (const json::Value* report = result->find("report"))
      eco.report = report->dump();
  }
  return eco;
}

/// The bench_perf_serve check: a fresh session replaying every edit
/// cold-analyzes to the same report the resident session served last.
void check_against_fresh(const Args& args, const EcoSizes& sz,
                         const std::vector<std::string>& edits,
                         std::size_t applied, const std::string& last_report,
                         Outcome& out) {
  server::Session fresh(default_config(analysis_jobs()));
  bool ok = ok_response(fresh.handle_line(load_request(args, sz)));
  for (std::size_t e = 0; e < applied; ++e)
    ok = ok_response(fresh.handle_line(edits[e])) && ok;
  const json::Value cold = fresh.handle_line(kAnalyze);
  ok = ok && ok_response(cold);
  const json::Value* report =
      ok ? cold.find("result")->find("report") : nullptr;
  out.check(report != nullptr && report->dump() == last_report,
            "eco: incremental report byte-identical to a fresh session's "
            "cold analyze of the edited design");
}

Outcome run_end_to_end(const Args& args) {
  Outcome out;
  const EcoSizes sz = eco_sizes(args);
  const AnalysisConfig cfg = default_config(analysis_jobs());

  // Setup: guard sample + its tables, the session, load + cold analyze.
  // The last two repetitions' sessions serve the two replays below.
  std::vector<double> setup_secs;
  std::vector<std::unique_ptr<server::Session>> sessions;
  std::vector<CoupledNet> guard;
  std::shared_ptr<CharacterizationCache> guard_cache;
  for (int i = 0; i < std::max(setup_repeats(args), 2); ++i) {
    const double t0 = now_s();
    guard = default_random_nets(args.seed, guard_size(args));
    guard_cache = std::make_shared<CharacterizationCache>(
        cfg.batch.analyzer.table_spec);
    out.check(fill_tables(*guard_cache, guard), "setup: guard table fill");
    sessions.push_back(start_server(args, sz, i, out));
    if (sessions.size() > 2) sessions.erase(sessions.begin());
    setup_secs.push_back(now_s() - t0);
  }

  // Closed loop: one client, next ECO after the previous response, for
  // half the run; then the same ECOs on the second session. An ECO's
  // latency is the lesser of its two replays (seconds apart), so the
  // host's multi-second slow stretches do not enter it.
  const std::vector<std::string> edits =
      edit_stream(args, sz, std::max(sz.min_ecos, 4000));
  std::vector<Eco> first;
  const double t0 = now_s();
  while (first.size() < edits.size() &&
         (first.size() < static_cast<std::size_t>(sz.min_ecos) ||
          now_s() - t0 < 0.5 * args.seconds))
    first.push_back(run_eco(*sessions[0], edits[first.size()], out));
  std::vector<double> eco_ms;
  double busy_ms = 0.0, analyze_ms = 0.0, reanalyzed = 0.0;
  std::string second_report;
  for (std::size_t e = 0; e < first.size(); ++e) {
    const Eco again = run_eco(*sessions[1], edits[e], out);
    eco_ms.push_back(std::min(first[e].ms, again.ms));
    busy_ms += eco_ms.back();
    analyze_ms += std::min(first[e].analyze_ms, again.analyze_ms);
    reanalyzed += first[e].reanalyzed;
    second_report = again.report;
  }
  out.check(second_report == first.back().report,
            "eco: both replays serve the same final report");
  check_against_fresh(args, sz, edits, first.size(), second_report, out);
  const auto flow = guard_flow(guard, cfg, guard_cache);

  std::fprintf(stderr, "eco_serve: %zu ECOs x 2 replays, %.0f nets re-analyzed\n",
               eco_ms.size(), reanalyzed);
  const double n = static_cast<double>(eco_ms.size());
  out.add("ops_per_s", n / (busy_ms * 1e-3), "1/s");
  out.add("op_ms_p50", percentile(eco_ms, 50.0), "ms");
  out.add("op_ms_p90", percentile(eco_ms, 90.0), "ms");
  out.add("nets_per_s_par", reanalyzed / (analyze_ms * 1e-3), "nets/s");
  out.add("setup_s", median(setup_secs), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  add_accuracy_metrics(out, guard, flow, cfg);
  sessions.clear();
  fs::remove_all(state_root(args));
  return out;
}

Outcome run_traced(const Args& args) {
  Outcome out;
  const EcoSizes sz = eco_sizes(args);
  const std::vector<std::string> edits = edit_stream(args, sz, sz.min_ecos);
  LayerNumbers ln;

  // Two identically prepared sessions take each ECO in turn: one with
  // observability off (the untraced reference), one with it on,
  // alternating which goes first.
  auto plain = start_server(args, sz, 0, out);
  auto traced = start_server(args, sz, 1, out);
  reset_observations();
  double plain_ms = 0.0, traced_ms = 0.0, bytes = 0.0;
  std::string last_report;
  for (std::size_t e = 0; e < edits.size(); ++e) {
    for (const bool observed : {e % 2 == 0, e % 2 != 0}) {
      set_observing(observed);
      const Eco eco = run_eco(observed ? *traced : *plain, edits[e], out);
      set_observing(false);
      if (!observed) {
        plain_ms += eco.ms;
        continue;
      }
      traced_ms += eco.ms;
      ln.reanalyzed_per_eco += eco.reanalyzed;
      bytes += eco.response_bytes;
      last_report = eco.report;
    }
  }
  read_program_counters(ln);
  const double hits =
      static_cast<double>(obs::metrics().counter("cache.hits").value());
  const double misses =
      static_cast<double>(obs::metrics().counter("cache.misses").value());
  ln.cache_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  ln.contention_waits = static_cast<double>(
      obs::metrics().counter("cache.contention_waits").value());
  check_against_fresh(args, sz, edits, edits.size(), last_report, out);

  // Per-ECO figures from the spans: edit latency, and the analyze request
  // split into engine time (its batch.run children) and the rest.
  const std::vector<Span> spans = collect_spans();
  std::vector<double> edit_ms, engine_ms, overhead_ms;
  std::vector<double> engine_of(spans.size(), 0.0);
  double eco_s = 0.0, eco_self_s = 0.0;
  for (const Span& s : spans)
    if (s.name == "batch.run" && s.parent >= 0)
      engine_of[static_cast<std::size_t>(s.parent)] += s.dur_us * 1e-3;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name == "server.edit") edit_ms.push_back(s.dur_us * 1e-3);
    if (s.name == "server.analyze") {
      engine_ms.push_back(engine_of[i]);
      overhead_ms.push_back(s.dur_us * 1e-3 - engine_of[i]);
    }
    if (s.name == "eco") {
      eco_s += s.dur_us * 1e-6;
      eco_self_s += s.self_us * 1e-6;
    }
  }
  const double n = static_cast<double>(edits.size());
  ln.edit_ms_p50 = percentile(edit_ms, 50.0);
  ln.edit_ms_max = max_of(edit_ms);
  ln.engine_ms_p50 = percentile(engine_ms, 50.0);
  ln.overhead_ms_p50 = percentile(overhead_ms, 50.0);
  ln.reanalyzed_per_eco /= n;
  ln.response_bytes_mean = bytes / n;
  ln.batch_idle_share = batch_idle_share(spans, analysis_jobs());
  ln.attributed_share = eco_s > 0 ? 1.0 - eco_self_s / eco_s : 0.0;
  ln.overhead_share = traced_ms / plain_ms - 1.0;
  ln.traced_wall_s = traced_ms * 1e-3;

  out.check(write_trace(args), "trace written");
  plain.reset();
  traced.reset();
  fs::remove_all(state_root(args));
  add_layer_metrics(out, ln);
  return out;
}

}  // namespace

Outcome run_eco_serve(const Args& args) {
  return args.trace ? run_traced(args) : run_end_to_end(args);
}

}  // namespace perfbench
