#include "server/session.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <utility>

#include <sys/stat.h>
#include <unistd.h>

#include "clarinet/report.hpp"
#include "util/fault_injection.hpp"
#include "util/metrics.hpp"

namespace dn::server {

namespace {

/// Every config key except the SCHEDULING ones (worker count, ranking
/// depth, deadline), which cannot change a net's result. A
/// config change dirties every victim iff this fingerprint changes, so a
/// new key invalidates stored results unless it is listed here.
std::string analysis_fingerprint(const AnalysisConfig& cfg) {
  static constexpr const char* kSchedulingKeys[] = {
      "jobs", "top_k", "deadline_ms"};
  const json::Value all = cfg.to_json();
  json::Object subset;
  for (const auto& [key, v] : all.as_object())
    if (std::find(std::begin(kSchedulingKeys), std::end(kSchedulingKeys),
                  key) == std::end(kSchedulingKeys))
      subset[key] = v;
  return json::Value(std::move(subset)).dump();
}

/// Clears a per-request fault spec on every exit path, including the
/// throw-to-Status unwind in handle_line.
struct FaultGuard {
  bool active = false;
  ~FaultGuard() {
    if (active) fault::clear();
  }
};

StatusOr<std::string> required_string(const json::Value& req, const char* key) {
  const json::Value* v = req.find(key);
  if (!v)
    return Status::InvalidArgument(std::string("request missing \"") + key +
                                   "\"");
  return v->require_string(key);
}

}  // namespace

namespace {

/// State-directory file names. The characterization cache is a sidecar
/// because it is large and regenerable; the snapshot holds a pointer +
/// content hash.
constexpr const char* kSnapshotFile = "snapshot.json";
constexpr const char* kJournalFile = "journal.wal";
constexpr const char* kCharCacheFile = "char_cache.dat";

}  // namespace

Session::Session(AnalysisConfig cfg, DurabilityOptions durability,
                 ProtocolLimits limits)
    : cfg_(std::move(cfg)),
      durability_(std::move(durability)),
      limits_(limits),
      cache_(std::make_shared<CharacterizationCache>(
          cfg_.batch.analyzer.table_spec)) {}

bool Session::is_mutation(const std::string& verb, const json::Value& req) {
  if (verb == "load_design" || verb == "update_net" ||
      verb == "update_driver")
    return true;
  // A config read is not a mutation; a config with "set" is (even when
  // the fingerprint ends up unchanged — replaying it is harmless).
  return verb == "config" && req.find("set") != nullptr;
}

Status Session::start_durability() {
  if (durability_.state_dir.empty()) return Status::Ok();
  const std::string& dir = durability_.state_dir;
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
    return Status::Internal("state dir " + dir + ": " + std::strerror(errno));
  const std::string snap_path = dir + "/" + kSnapshotFile;
  const std::string wal_path = dir + "/" + kJournalFile;

  if (durability_.recover) {
    StatusOr<SnapshotData> snap = read_snapshot(snap_path);
    if (snap.ok()) {
      Status s = restore_from_snapshot(*snap);
      if (!s.ok()) return s;
      recovered_ = true;
    } else if (snap.status().code() != StatusCode::kNotFound) {
      // A corrupt snapshot is a hard error: serving without it would be
      // silent data loss the operator never asked for.
      return snap.status();
    }
    StatusOr<Journal::Replay> replay = Journal::read(wal_path);
    if (replay.ok()) {
      for (const Journal::Entry& e : replay->entries) {
        if (e.seq <= seq_) continue;  // Covered by the snapshot.
        if (e.is_request()) {
          // Replay re-runs the original request verbatim through the
          // same deterministic handlers. A request that failed
          // validation the first time fails identically now; its
          // (discarded) response is the proof nothing was applied.
          const json::Value* verb = e.request.find("verb");
          if (verb && verb->is_string()) {
            json::Object ignored;
            (void)dispatch_verb(verb->as_string(), e.request, ignored,
                                Admission::kAccept);
          }
          ++replayed_;
        }
        seq_ = e.seq;
      }
      if (replay->torn_tail) {
        // Amputate the torn tail so new appends follow the last valid
        // record instead of being buried behind garbage.
        torn_tail_discarded_ = true;
        Status ts = durable::truncate_file(wal_path, replay->valid_bytes);
        if (!ts.ok()) return ts;
      }
      recovered_ = true;
    } else if (replay.status().code() != StatusCode::kNotFound) {
      return replay.status();
    }
  } else {
    // Fresh start: discard prior state so a later --recover replays only
    // this run's history.
    ::unlink(snap_path.c_str());
    ::unlink(wal_path.c_str());
    ::unlink((dir + "/" + kCharCacheFile).c_str());
  }

  Status s = journal_.open(wal_path, durability_.fsync);
  if (!s.ok()) return s;
  if (recovered_ && has_design_) {
    // Byte-identity by recompute: every victim is dirty, per-net
    // analysis is deterministic, so the next analyze reproduces exactly
    // the report a never-crashed session would serve.
    mark_all_dirty();
    warmup_ = true;
  }
  return Status::Ok();
}

Status Session::restore_from_snapshot(const SnapshotData& snap) {
  Status s = cfg_.apply(snap.config);
  if (!s.ok())
    return Status::InvalidArgument("snapshot config rejected: " + s.message());
  // The table spec may differ from the boot config now that the
  // snapshot's config is in force; rebuild the cache around it so a
  // spec-skewed sidecar is rejected by load() below.
  cache_ = std::make_shared<CharacterizationCache>(
      cfg_.batch.analyzer.table_spec);
  if (snap.has_design) {
    StatusOr<Design> d = Design::from_json(snap.design);
    if (!d.ok()) return d.status();
    design_ = std::move(*d);
    rebind_design();
  }
  seq_ = snap.seq;

  // The cache sidecar is performance-only — a miss re-derives the same
  // bytes — so load is best-effort: verify the snapshot's whole-file
  // hash, then let the loader verify its embedded payload hash; any
  // mismatch skips the file.
  const std::string& dir = durability_.state_dir;
  if (!snap.char_cache_file.empty()) {
    StatusOr<std::string> bytes =
        durable::read_file(dir + "/" + snap.char_cache_file);
    if (bytes.ok() && durable::fnv1a(*bytes) == snap.char_cache_hash) {
      std::istringstream is(*bytes);
      (void)cache_->load(is);
    }
  }
  return Status::Ok();
}

Status Session::snapshot_now() {
  if (!journal_.is_open())
    return Status::FailedPrecondition("snapshot: durability is not enabled");
  const std::string& dir = durability_.state_dir;

  SnapshotData snap;
  snap.seq = seq_;
  snap.config = cfg_.to_json();
  if (has_design_) {
    snap.has_design = true;
    snap.design = design_.to_json();
  }
  // Sidecar before the snapshot that points at it; each is atomic on its
  // own, and a crash between leaves the OLD snapshot pointing at its own
  // (still hash-consistent) file or at nothing.
  if (cache_->tables_cached() > 0 &&
      cache_->save_file(dir + "/" + kCharCacheFile).ok()) {
    StatusOr<std::string> bytes =
        durable::read_file(dir + "/" + kCharCacheFile);
    if (bytes.ok()) {
      snap.char_cache_file = kCharCacheFile;
      snap.char_cache_hash = durable::fnv1a(*bytes);
    }
  }

  Status s = write_snapshot(dir + "/" + kSnapshotFile, snap);
  if (!s.ok()) {
    ++snapshot_failures_;
    return s;
  }
  // The snapshot covers every journaled mutation (seq_), so the journal
  // is redundant. A crash RIGHT HERE is fine: replay skips entries with
  // seq <= snapshot.seq.
  Status ts = journal_.truncate();
  if (!ts.ok()) {
    ++snapshot_failures_;
    return ts;
  }
  mutations_since_snapshot_ = 0;
  ++snapshots_;
  return Status::Ok();
}

Status Session::graceful_stop() {
  if (!journal_.is_open()) return Status::Ok();
  Status s = snapshot_now();
  if (!s.ok()) return s;
  journal_.close();
  return Status::Ok();
}

json::Value Session::respond(const json::Value* id, Status status,
                             json::Object result) const {
  json::Object o;
  o["schema_version"] = kReportSchemaVersion;
  if (id) o["id"] = *id;
  o["ok"] = status.ok();
  if (status.ok()) {
    o["result"] = json::Value(std::move(result));
  } else {
    json::Object err;
    err["code"] = status_code_name(status.code());
    err["message"] = status.message();
    o["error"] = json::Value(std::move(err));
  }
  return json::Value(std::move(o));
}

json::Value Session::reject_oversized(std::size_t bytes) {
  ++requests_;
  ++errors_;
  return respond(nullptr,
                 Status::InvalidArgument(
                     "request of " + std::to_string(bytes) +
                     " bytes exceeds the per-request limit of " +
                     std::to_string(limits_.max_request_bytes)),
                 {});
}

json::Value Session::handle_line(const std::string& line,
                                 Admission admission) {
  // Size limit BEFORE parsing: a pathologically long line is rejected
  // for the cost of strlen, not of building its value tree.
  if (limits_.max_request_bytes > 0 &&
      line.size() > limits_.max_request_bytes)
    return reject_oversized(line.size());
  ++requests_;
  StatusOr<json::Value> parsed = json::parse(line);
  if (!parsed.ok()) {
    ++errors_;
    return respond(nullptr, parsed.status(), {});
  }
  const json::Value* id = parsed->find("id");
  if (limits_.max_request_nodes > 0 &&
      json::node_count(*parsed) > limits_.max_request_nodes) {
    ++errors_;
    return respond(id,
                   Status::InvalidArgument(
                       "request exceeds the per-request field-count limit "
                       "of " +
                       std::to_string(limits_.max_request_nodes)),
                   {});
  }
  if (shutdown_) {
    // Post-shutdown drain: every remaining pipelined request still gets
    // a response (kUnavailable, ordered) so clients never hang on a
    // missing line.
    ++errors_;
    return respond(id, Status::Unavailable("server is shutting down"), {});
  }
  if (admission == Admission::kShed) {
    ++shed_;
    ++errors_;
    return respond(id,
                   Status::Unavailable(
                       "server overloaded: request shed by admission control"),
                   {});
  }
  // Recovery-aware admission: until the first post-recovery analyze
  // succeeds, soft-pressure degradation is promoted back to full
  // fidelity — degrading the full-design recompute would leave every
  // victim dirty and the backlog permanent.
  if (warmup_ && admission == Admission::kDegrade) {
    admission = Admission::kAccept;
    ++warmup_promotions_;
  }
  if (admission == Admission::kDegrade) ++degraded_admission_;

  Status status;
  json::Object result;
  const json::Value* verb_v = parsed->find("verb");
  StatusOr<std::string> verb =
      verb_v ? verb_v->require_string("verb")
             : StatusOr<std::string>(
                   Status::InvalidArgument("request missing \"verb\""));
  if (!verb.ok()) {
    status = verb.status();
  } else {
    const bool mutating = is_mutation(*verb, *parsed);
    if (mutating && journal_.is_open()) {
      // Write-ahead: the mutation reaches the journal BEFORE it touches
      // session state, so the journal is always a superset of what was
      // applied. A journal append failure refuses the mutation — the
      // reverse order would make replay silently lose it.
      Status js = journal_.append_request(seq_ + 1, *parsed);
      if (!js.ok()) {
        ++errors_;
        return respond(id, js, {});
      }
      ++seq_;
    }
    status = dispatch_verb(*verb, *parsed, result, admission);
    if (mutating && journal_.is_open() && status.ok()) {
      ++mutations_since_snapshot_;
      if (durability_.snapshot_every > 0 &&
          mutations_since_snapshot_ >= durability_.snapshot_every)
        (void)snapshot_now();  // Best-effort; failures are counted.
    }
  }
  if (!status.ok()) ++errors_;
  return respond(id, status, std::move(result));
}

Status Session::dispatch_verb(const std::string& verb,
                              const json::Value& req, json::Object& result,
                              Admission admission) {
  // The Status boundary of the whole protocol: a handler bug or a
  // throwing layer below must become a response, never kill the
  // session. Journal replay shares this boundary.
  try {
    if (verb == "ping") return Status::Ok();
    if (verb == "load_design") return verb_load_design(req, result);
    if (verb == "update_net") return verb_update_net(req, result);
    if (verb == "update_driver") return verb_update_driver(req, result);
    if (verb == "analyze") {
      Status s = verb_analyze(req, result, admission);
      if (s.ok()) warmup_ = false;
      return s;
    }
    if (verb == "config") return verb_config(req, result);
    if (verb == "stats") return verb_stats(result);
    if (verb == "save_cache") return verb_save_cache(req, result);
    if (verb == "load_cache") return verb_load_cache(req, result);
    if (verb == "snapshot") return verb_snapshot(result);
    if (verb == "shutdown") {
      shutdown_ = true;
      return Status::Ok();
    }
    return Status::InvalidArgument("unknown verb \"" + verb + "\"");
  } catch (const std::exception& e) {
    return status_from_exception(e);
  }
}

Status Session::verb_snapshot(json::Object& result) {
  Status s = snapshot_now();
  if (!s.ok()) return s;
  result["seq"] = seq_;
  result["snapshots"] = snapshots_;
  return Status::Ok();
}

void Session::rebind_design() {
  victims_ = design_.victims();
  slots_.assign(victims_.size(), BatchNetResult{});
  dirty_.assign(victims_.size(), true);
  has_design_ = true;
}

void Session::mark_all_dirty() {
  std::fill(dirty_.begin(), dirty_.end(), true);
}

void Session::invalidate(int net_index, json::Object& result) {
  json::Array names;
  for (const int v : design_.affected_victims(net_index)) {
    const auto it = std::lower_bound(victims_.begin(), victims_.end(), v);
    if (it == victims_.end() || *it != v) continue;
    dirty_[static_cast<std::size_t>(it - victims_.begin())] = true;
    names.push_back(design_.net(v).name);
  }
  result["invalidated"] = std::move(names);
}

Status Session::verb_load_design(const json::Value& req,
                                 json::Object& result) {
  const json::Value* spec = req.find("design");
  if (!spec || !spec->is_object())
    return Status::InvalidArgument(
        "load_design: missing \"design\" object");

  if (const json::Value* random = spec->find("random")) {
    std::uint64_t seed = 1;
    int nets = 0, neighbors = 2;
    if (const json::Value* v = random->find("seed")) {
      StatusOr<int> r = v->require_int("seed");
      if (!r.ok()) return r.status();
      seed = static_cast<std::uint64_t>(*r);
    }
    if (const json::Value* v = random->find("nets")) {
      StatusOr<int> r = v->require_int("nets");
      if (!r.ok()) return r.status();
      nets = *r;
    }
    if (const json::Value* v = random->find("neighbors")) {
      StatusOr<int> r = v->require_int("neighbors");
      if (!r.ok()) return r.status();
      neighbors = *r;
    }
    if (nets < 1 || nets > 1000000)
      return Status::InvalidArgument(
          "load_design: random.nets must be in [1, 1000000]");
    if (limits_.max_design_nets > 0 &&
        static_cast<std::size_t>(nets) > limits_.max_design_nets)
      return Status::InvalidArgument(
          "load_design: " + std::to_string(nets) +
          " nets exceeds the configured limit of " +
          std::to_string(limits_.max_design_nets));
    if (neighbors < 0 || neighbors >= nets)
      return Status::InvalidArgument(
          "load_design: random.neighbors must be in [0, nets)");
    design_ = Design::random(seed, nets, neighbors);
  } else if (const json::Value* files = spec->find("spef_files")) {
    if (!files->is_array())
      return Status::InvalidArgument(
          "load_design: spef_files must be an array of paths");
    std::vector<std::string> paths;
    for (const json::Value& f : files->as_array()) {
      StatusOr<std::string> p = f.require_string("spef_files entry");
      if (!p.ok()) return p.status();
      paths.push_back(std::move(*p));
    }
    StatusOr<Design> loaded = Design::from_spef_files(paths);
    if (!loaded.ok()) return loaded.status();
    if (limits_.max_design_nets > 0 &&
        loaded->num_nets() > limits_.max_design_nets)
      return Status::InvalidArgument(
          "load_design: " + std::to_string(loaded->num_nets()) +
          " nets exceeds the configured limit of " +
          std::to_string(limits_.max_design_nets));
    design_ = std::move(*loaded);
  } else {
    return Status::InvalidArgument(
        "load_design: design needs \"random\" or \"spef_files\"");
  }

  rebind_design();
  result["nets"] = design_.num_nets();
  result["victims"] = victims_.size();
  result["couplings"] = design_.num_couplings();
  return Status::Ok();
}

Status Session::verb_update_net(const json::Value& req,
                                json::Object& result) {
  if (!has_design_)
    return Status::FailedPrecondition("update_net: no design loaded");
  StatusOr<std::string> name = required_string(req, "net");
  if (!name.ok()) return name.status();
  StatusOr<int> idx = design_.find(*name);
  if (!idx.ok()) return idx.status();

  double scale_r = 1.0, scale_c = 1.0;
  if (const json::Value* v = req.find("scale_r")) {
    StatusOr<double> r = v->require_number("scale_r");
    if (!r.ok()) return r.status();
    scale_r = *r;
  }
  if (const json::Value* v = req.find("scale_c")) {
    StatusOr<double> r = v->require_number("scale_c");
    if (!r.ok()) return r.status();
    scale_c = *r;
  }
  Status s = design_.scale_net(*idx, scale_r, scale_c);
  if (!s.ok()) return s;
  result["net"] = *name;
  invalidate(*idx, result);
  return Status::Ok();
}

Status Session::verb_update_driver(const json::Value& req,
                                   json::Object& result) {
  if (!has_design_)
    return Status::FailedPrecondition("update_driver: no design loaded");
  StatusOr<std::string> name = required_string(req, "net");
  if (!name.ok()) return name.status();
  StatusOr<int> idx = design_.find(*name);
  if (!idx.ok()) return idx.status();

  const json::Value* size_v = req.find("size");
  if (!size_v)
    return Status::InvalidArgument("update_driver: missing \"size\"");
  StatusOr<double> size = size_v->require_number("size");
  if (!size.ok()) return size.status();
  Status s = design_.set_driver_size(*idx, *size);
  if (!s.ok()) return s;
  result["net"] = *name;
  invalidate(*idx, result);
  return Status::Ok();
}

Status Session::verb_analyze(const json::Value& req, json::Object& result,
                             Admission admission) {
  if (!has_design_)
    return Status::FailedPrecondition("analyze: no design loaded");
  const bool degraded = admission == Admission::kDegrade;
  const auto wd_start = std::chrono::steady_clock::now();

  std::vector<std::size_t> dirty_idx;
  for (std::size_t o = 0; o < dirty_.size(); ++o)
    if (dirty_[o]) dirty_idx.push_back(o);

  if (!dirty_idx.empty()) {
    std::vector<CoupledNet> nets;
    std::vector<std::string> names;
    nets.reserve(dirty_idx.size());
    for (const std::size_t o : dirty_idx) {
      const int net_index = victims_[o];
      StatusOr<CoupledNet> view = design_.coupled_view(net_index);
      if (!view.ok()) return view.status();
      nets.push_back(std::move(*view));
      names.push_back(design_.net(net_index).name);
    }

    BatchOptions opts = cfg_.batch;
    if (degraded) {
      // Soft-pressure rung: Thevenin holding instead of the Rtr
      // iteration. The recomputed victims STAY dirty so full fidelity
      // returns with the next unloaded analyze.
      opts.analyzer.analysis.use_transient_holding = false;
    }
    if (const json::Value* dl = req.find("deadline_ms")) {
      StatusOr<double> r = dl->require_number("deadline_ms");
      if (!r.ok()) return r.status();
      opts.deadline_ms = *r;
    }
    // Cooperative watchdog: a stuck request cannot be preempted, but it
    // CAN be bounded — the engine's own deadline machinery aborts nets
    // past min(request deadline, watchdog).
    if (durability_.watchdog_ms > 0)
      opts.deadline_ms = opts.deadline_ms > 0
                             ? std::min(opts.deadline_ms,
                                        durability_.watchdog_ms)
                             : durability_.watchdog_ms;
    // Per-request deterministic chaos: install the spec for this run
    // only (replacing any process-level spec; cleared after).
    FaultGuard fault_guard;
    if (const json::Value* fs = req.find("inject_faults")) {
      StatusOr<std::string> spec_str = fs->require_string("inject_faults");
      if (!spec_str.ok()) return spec_str.status();
      StatusOr<fault::FaultSpec> spec = fault::parse_fault_spec(*spec_str);
      if (!spec.ok()) return spec.status();
      std::uint64_t seed = 1;
      if (const json::Value* sv = req.find("fault_seed")) {
        StatusOr<int> r = sv->require_int("fault_seed");
        if (!r.ok()) return r.status();
        seed = static_cast<std::uint64_t>(*r);
      }
      fault::install(*spec, seed);
      fault_guard.active = true;
    }

    BatchAnalyzer engine(opts, cache_);
    BatchResult br = engine.analyze(nets, names);

    for (std::size_t p = 0; p < dirty_idx.size(); ++p) {
      const std::size_t o = dirty_idx[p];
      br.nets[p].index = o;
      // A net that ran out of deadline stays dirty: the stored slot
      // records the failure honestly, and the next analyze runs it again
      // instead of serving the failure forever. So does every net of a
      // fault-injected request: its faults belong to that request alone.
      const bool out_of_time =
          br.nets[p].status.code() == StatusCode::kDeadlineExceeded;
      slots_[o] = std::move(br.nets[p]);
      dirty_[o] = degraded || out_of_time || fault_guard.active;
    }
    ++analyze_runs_;
    nets_reanalyzed_ += dirty_idx.size();

    // Watchdog trip: the work is bounded by the deadline above, but the
    // REQUEST still overran its budget — answer kDeadlineExceeded (the
    // aborted victims are still dirty, so a later analyze finishes the
    // job) and journal the incident so the stall survives a crash.
    if (durability_.watchdog_ms > 0) {
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - wd_start)
              .count();
      if (elapsed_ms > durability_.watchdog_ms) {
        ++watchdog_trips_;
        if (journal_.is_open()) {
          json::Object incident;
          incident["verb"] = "analyze";
          incident["watchdog_ms"] = durability_.watchdog_ms;
          incident["elapsed_ms"] = elapsed_ms;
          (void)journal_.append_incident(++seq_,
                                         json::Value(std::move(incident)));
        }
        return Status::DeadlineExceeded(
            "analyze: watchdog tripped after " + std::to_string(elapsed_ms) +
            " ms (limit " + std::to_string(durability_.watchdog_ms) + " ms)");
      }
    }
  }

  // Assemble the FULL design's report from the stored slots — identical
  // bytes whether the slots were just computed or carried over. The
  // shared finalizer keeps the ranking/stat rules in lockstep with the
  // one-shot batch path; dirty nets re-entered the ladder at Tier 0
  // above, so their provenance is current. The slots move into the
  // assembled result and back, so their waveforms are never copied.
  BatchResult assembled;
  assembled.nets = std::move(slots_);
  json::Value report;
  try {
    finalize_batch_result(assembled, cfg_.batch.top_k,
                          cfg_.batch.ladder.enabled);
    report = assembled.to_json_value();
  } catch (...) {
    slots_ = std::move(assembled.nets);
    throw;
  }
  slots_ = std::move(assembled.nets);

  result["reanalyzed"] = dirty_idx.size();
  if (degraded) result["admission_degraded"] = true;
  result["report"] = std::move(report);
  return Status::Ok();
}

Status Session::verb_config(const json::Value& req, json::Object& result) {
  if (const json::Value* set = req.find("set")) {
    const std::string before = analysis_fingerprint(cfg_);
    Status s = cfg_.apply(*set);
    if (!s.ok()) return s;
    // Search keys also steer the alignment-table characterization: tables
    // built under the old spec must not serve the new config.
    if (cfg_.batch.analyzer.table_spec != cache_->spec())
      cache_ = std::make_shared<CharacterizationCache>(
          cfg_.batch.analyzer.table_spec);
    // Scheduling keys (jobs, top_k, deadline_ms) don't change results;
    // analysis keys do — and stale slots must not masquerade as current.
    if (analysis_fingerprint(cfg_) != before) mark_all_dirty();
  }
  result["config"] = cfg_.to_json();
  return Status::Ok();
}

Status Session::verb_stats(json::Object& result) {
  result["uptime_s"] = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start_)
                           .count();
  result["requests"] = requests_;
  result["errors"] = errors_;
  result["shed"] = shed_;
  result["degraded_admission"] = degraded_admission_;
  result["analyze_runs"] = analyze_runs_;
  result["nets_reanalyzed"] = nets_reanalyzed_;
  result["design_loaded"] = has_design_;
  if (has_design_) {
    result["nets"] = design_.num_nets();
    result["victims"] = victims_.size();
    result["couplings"] = design_.num_couplings();
    std::size_t dirty = 0;
    for (const bool d : dirty_) dirty += d ? 1 : 0;
    result["dirty"] = dirty;
  }
  json::Object cache;
  cache["tables"] = cache_->tables_cached();
  cache["hits"] = cache_->hits();
  cache["misses"] = cache_->misses();
  cache["contention_waits"] = cache_->contention_waits();
  result["characterization_cache"] = json::Value(std::move(cache));
  json::Object dur;
  dur["enabled"] = journal_.is_open();
  if (journal_.is_open()) dur["state_dir"] = durability_.state_dir;
  dur["seq"] = seq_;
  dur["mutations_since_snapshot"] = mutations_since_snapshot_;
  dur["snapshots"] = snapshots_;
  dur["snapshot_failures"] = snapshot_failures_;
  dur["watchdog_trips"] = watchdog_trips_;
  dur["recovered"] = recovered_;
  dur["replayed"] = replayed_;
  dur["torn_tail_discarded"] = torn_tail_discarded_;
  dur["warmup"] = warmup_;
  dur["warmup_promotions"] = warmup_promotions_;
  result["durability"] = json::Value(std::move(dur));
  // The full dn::obs registry, when the process was started with
  // metrics on (--profile/--metrics-json): the daemon's observability
  // story is the same one batch mode has.
  if (obs::metrics_enabled())
    result["metrics"] = obs::metrics().to_json_value();
  return Status::Ok();
}

Status Session::verb_save_cache(const json::Value& req,
                                json::Object& result) {
  StatusOr<std::string> path = required_string(req, "path");
  if (!path.ok()) return path.status();
  Status s = cache_->save_file(*path);
  if (!s.ok()) return s;
  result["path"] = *path;
  result["tables"] = cache_->tables_cached();
  return Status::Ok();
}

Status Session::verb_load_cache(const json::Value& req,
                                json::Object& result) {
  StatusOr<std::string> path = required_string(req, "path");
  if (!path.ok()) return path.status();
  StatusOr<std::size_t> loaded = cache_->load_file(*path);
  if (!loaded.ok()) return loaded.status();
  result["path"] = *path;
  result["tables_loaded"] = *loaded;
  return Status::Ok();
}

}  // namespace dn::server
