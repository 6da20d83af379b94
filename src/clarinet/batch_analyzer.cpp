#include "clarinet/batch_analyzer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ostream>
#include <sstream>

#include "util/deadline.hpp"
#include "util/fault_injection.hpp"
#include "util/trace.hpp"

namespace dn {

void finalize_batch_result(BatchResult& out, int top_k, bool ladder_enabled) {
  // Worst-K by the reported combined delay noise, ties broken by index so
  // the ranking is stable across thread counts. Pruned nets never rank.
  std::vector<std::size_t> ok_idx;
  ok_idx.reserve(out.nets.size());
  for (const auto& nr : out.nets)
    if (nr.outcome == AnalysisOutcome::kOk ||
        nr.outcome == AnalysisOutcome::kDegraded)
      ok_idx.push_back(nr.index);
  const std::size_t k = std::min<std::size_t>(
      ok_idx.size(),
      top_k > 0 ? static_cast<std::size_t>(top_k) : ok_idx.size());
  std::partial_sort(ok_idx.begin(), ok_idx.begin() + static_cast<long>(k),
                    ok_idx.end(), [&](std::size_t a, std::size_t b) {
                      const double da = out.nets[a].report.delay_noise_ps;
                      const double db = out.nets[b].report.delay_noise_ps;
                      if (da != db) return da > db;
                      return a < b;
                    });
  ok_idx.resize(k);
  out.worst = std::move(ok_idx);

  BatchStats& st = out.stats;
  st.total = out.nets.size();
  st.analyzed = st.degraded = 0;
  st.tier0_pruned = st.tier1_pruned = st.tier2_analyzed = 0;
  st.max_pruned_bound = 0.0;
  st.ladder = ladder_enabled;
  for (const auto& nr : out.nets) {
    switch (nr.outcome) {
      case AnalysisOutcome::kScreened:
        if (nr.decided_by == FidelityTier::kTier0)
          ++st.tier0_pruned;
        else
          ++st.tier1_pruned;
        st.max_pruned_bound = std::max(st.max_pruned_bound, nr.dn_bound);
        break;
      case AnalysisOutcome::kDegraded:
        ++st.degraded;
        [[fallthrough]];
      case AnalysisOutcome::kOk:
        ++st.analyzed;
        if (ladder_enabled) ++st.tier2_analyzed;
        break;
      case AnalysisOutcome::kFailed:
        break;
    }
  }
  st.failed = st.total - st.analyzed - st.pruned();
}

BatchAnalyzer::BatchAnalyzer(BatchOptions opts)
    : opts_(std::move(opts)),
      jobs_(ThreadPool::resolve_jobs(opts_.jobs)),
      analyzer_(opts_.analyzer),
      pool_(jobs_) {
  attach_char_pool();
}

BatchAnalyzer::BatchAnalyzer(BatchOptions opts,
                             std::shared_ptr<CharacterizationCache> cache)
    : opts_(std::move(opts)),
      jobs_(ThreadPool::resolve_jobs(opts_.jobs)),
      analyzer_(opts_.analyzer, std::move(cache)),
      pool_(jobs_) {
  attach_char_pool();
}

void BatchAnalyzer::attach_char_pool() {
  // An alignment table has exactly 8 corners, so more workers than that
  // cannot help a single fill.
  if (jobs_ > 1) {
    char_pool_.emplace(std::min(jobs_, 8));
    cache()->set_characterization_pool(&*char_pool_);
  }
}

BatchAnalyzer::~BatchAnalyzer() {
  if (char_pool_) cache()->set_characterization_pool(nullptr);
}

BatchResult BatchAnalyzer::analyze(const std::vector<CoupledNet>& nets,
                                   const std::vector<std::string>& names) {
  static obs::Counter& c_runs = obs::metrics().counter("batch.runs");
  static obs::Counter& c_ok = obs::metrics().counter("batch.nets_ok");
  static obs::Counter& c_failed = obs::metrics().counter("batch.nets_failed");
  static obs::Counter& c_screened =
      obs::metrics().counter("batch.nets_screened");
  static obs::Counter& c_degraded =
      obs::metrics().counter("batch.nets_degraded");
  static obs::Histogram& h_net =
      obs::metrics().histogram("batch.net.seconds");
  static obs::Gauge& g_depth = obs::metrics().gauge("batch.queue_depth");
  static obs::Gauge& g_jobs = obs::metrics().gauge("batch.jobs");

  obs::TraceSpan run_span("batch.run", "batch");
  c_runs.add();
  g_jobs.set(jobs_);

  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t hits0 = cache()->hits();
  const std::uint64_t misses0 = cache()->misses();

  const bool do_ladder = opts_.ladder.enabled;
  const FidelityLadder ladder(opts_.ladder);

  BatchResult out;
  out.nets.resize(nets.size());
  // Items not yet finished — exported as the queue-depth gauge so a trace
  // shows how the tail of a batch drains. Touched only when metrics are on.
  std::atomic<std::size_t> remaining{nets.size()};

  // One shared deadline for the whole batch; every worker installs it so
  // the step loops deep inside each net's analysis poll it.
  const Deadline deadline = opts_.deadline_ms > 0
                                ? Deadline::after(opts_.deadline_ms * 1e-3)
                                : Deadline();

  pool_.parallel_for(nets.size(), [&](std::size_t i) {
    ScopedDeadline scoped_deadline(deadline);
    BatchNetResult& slot = out.nets[i];  // Exclusive: one writer per slot.
    slot.index = i;
    slot.name = i < names.size() ? names[i] : "net" + std::to_string(i);
    {
      obs::ScopedLatency lat(h_net);
      obs::TraceSpan span("batch.net", "batch", "net", slot.name);
      if (do_ladder) {
        // Tiered triage (DESIGN.md §13); ladder failures on malformed
        // nets fall through so the full analysis reports the
        // authoritative Status.
        StatusOr<LadderDecision> dec = ladder.evaluate(nets[i]);
        if (dec.ok()) {
          slot.decided_by = dec->decided_by;
          slot.dn_bound = dec->dn_bound;
          if (dec->pruned) slot.outcome = AnalysisOutcome::kScreened;
        }
      }
      if (slot.outcome == AnalysisOutcome::kScreened) {
        c_screened.add();
      } else {
        if (deadline.expired()) {
          // Fail fast: do not start work the budget cannot pay for.
          slot.status = deadline.check("batch worker");
        } else {
          // Deterministic identity of the analysis: every fault probe
          // (factor, newton) inside it is keyed to the net index, never
          // to the thread or schedule. The mix64(0) term keeps the keys
          // of earlier releases, so a chaos run reproduces across them.
          fault::ScopedContext fault_ctx(
              fault::mix64(static_cast<std::uint64_t>(i) + 1) ^
              fault::mix64(0));
          StatusOr<DelayNoiseResult> r = analyzer_.try_analyze(nets[i]);
          if (r.ok()) {
            slot.result = std::move(*r);
            slot.report =
                DelayNoiseReport::from(nets[i], slot.result, slot.name);
            if (do_ladder)
              slot.report.fidelity_tier = fidelity_tier_name(slot.decided_by);
          } else {
            slot.status = r.status();
          }
        }
        if (slot.status.ok()) {
          slot.outcome = slot.result.degradations.empty()
                             ? AnalysisOutcome::kOk
                             : AnalysisOutcome::kDegraded;
          if (slot.outcome == AnalysisOutcome::kDegraded) c_degraded.add();
          c_ok.add();
        } else {
          slot.outcome = AnalysisOutcome::kFailed;
          c_failed.add();
        }
      }
    }
    if (obs::metrics_enabled())
      g_depth.set(static_cast<double>(
          remaining.fetch_sub(1, std::memory_order_relaxed) - 1));
  });

  finalize_batch_result(out, opts_.top_k, do_ladder);

  auto& st = out.stats;
  st.jobs = jobs_;
  st.elapsed_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  st.nets_per_s =
      st.elapsed_s > 0 ? static_cast<double>(st.total) / st.elapsed_s : 0.0;
  st.tables_cached = cache()->tables_cached();
  st.cache_hits = cache()->hits() - hits0;
  st.cache_misses = cache()->misses() - misses0;
  return out;
}

void BatchResult::write_text(std::ostream& os) const {
  const auto saved = os.precision(6);
  os << "batch delay-noise analysis: " << stats.total << " nets, "
     << stats.failed << " failed";
  if (stats.degraded) os << ", " << stats.degraded << " degraded";
  if (stats.pruned()) os << ", " << stats.pruned() << " screened out";
  os << "\n";
  if (stats.ladder) {
    os << "fidelity ladder: tier0 pruned " << stats.tier0_pruned
       << ", tier1 pruned " << stats.tier1_pruned << ", tier2 analyzed "
       << stats.tier2_analyzed;
    if (stats.pruned())
      os << "; max pruned bound " << stats.max_pruned_bound * 1e12 << " ps";
    os << "\n";
  }
  for (const auto& nr : nets) {
    os << "  [" << nr.index << "] " << nr.name << ": ";
    if (nr.outcome == AnalysisOutcome::kScreened) {
      os << "pruned at " << fidelity_tier_name(nr.decided_by) << " (bound "
         << nr.dn_bound * 1e12 << " ps)\n";
    } else if (nr.status.ok()) {
      os << nr.report.delay_noise_ps << " ps combined ("
         << nr.report.input_delay_noise_ps << " ps interconnect, "
         << nr.report.num_aggressors << " aggressors)";
      if (!nr.report.degradations.empty()) {
        os << " DEGRADED [";
        for (std::size_t d = 0; d < nr.report.degradations.size(); ++d)
          os << (d ? "," : "")
             << degrade_kind_name(nr.report.degradations[d].kind);
        os << "]";
      }
      os << "\n";
    } else {
      os << "FAILED " << nr.status.to_string() << "\n";
    }
  }
  if (!worst.empty()) {
    os << "worst " << worst.size() << " nets by combined delay noise:\n";
    int rank = 1;
    for (const std::size_t i : worst)
      os << "  #" << rank++ << " [" << i << "] " << nets[i].name << ": "
         << nets[i].report.delay_noise_ps << " ps\n";
  }
  os.precision(saved);
}

std::string BatchResult::to_text() const {
  std::ostringstream os;
  write_text(os);
  return os.str();
}

json::Value BatchResult::to_json_value() const {
  json::Array entries;
  entries.reserve(nets.size());
  for (const auto& nr : nets) {
    if (nr.outcome == AnalysisOutcome::kScreened) {
      json::Object e;
      e["net"] = nr.name;
      e["screened_out"] = true;
      e["tier"] = fidelity_tier_name(nr.decided_by);
      e["bound_ps"] = nr.dn_bound * 1e12;
      entries.emplace_back(std::move(e));
    } else if (nr.status.ok()) {
      entries.push_back(nr.report.to_json_value());
    } else {
      json::Object e;
      e["net"] = nr.name;
      e["error"] = status_code_name(nr.status.code());
      entries.emplace_back(std::move(e));
    }
  }
  json::Array ranked;
  for (const std::size_t i : worst) ranked.emplace_back(i);

  json::Object o;
  o["schema_version"] = kReportSchemaVersion;
  o["nets"] = std::move(entries);
  o["worst"] = std::move(ranked);
  o["failed"] = stats.failed;
  if (stats.degraded) o["degraded"] = stats.degraded;
  if (stats.pruned()) o["screened_out"] = stats.pruned();
  if (stats.ladder) {
    json::Object ladder;
    ladder["tier0_pruned"] = stats.tier0_pruned;
    ladder["tier1_pruned"] = stats.tier1_pruned;
    ladder["tier2_analyzed"] = stats.tier2_analyzed;
    ladder["max_pruned_bound_ps"] = stats.max_pruned_bound * 1e12;
    o["ladder"] = json::Value(std::move(ladder));
  }
  return json::Value(std::move(o));
}

void BatchResult::write_json(std::ostream& os) const {
  to_json_value().dump(os);
}

std::string BatchResult::to_json() const { return to_json_value().dump(); }

std::string BatchResult::stats_text() const {
  std::ostringstream os;
  os.precision(4);
  os << "jobs " << stats.jobs << ": " << stats.total << " nets in "
     << stats.elapsed_s << " s (" << stats.nets_per_s << " nets/s), "
     << stats.tables_cached << " tables characterized, cache hit rate "
     << 100.0 * stats.cache_hit_rate() << "% (" << stats.cache_hits << " hits / "
     << stats.cache_misses << " misses)";
  if (stats.pruned()) os << ", " << stats.pruned() << " nets screened out";
  if (stats.ladder)
    os << "; ladder: " << stats.tier0_pruned << " tier0 / "
       << stats.tier1_pruned << " tier1 pruned, " << stats.tier2_analyzed
       << " tier2 analyzed";
  return os.str();
}

}  // namespace dn
