// Resident analysis session: the daemon's state and request handlers.
//
// One Session outlives every request (and, on the socket transport,
// every connection): it owns the loaded Design, the shared
// CharacterizationCache, the last per-victim results, and the dirty set
// that makes re-analysis incremental.
//
// Incremental model (DESIGN.md §11): each victim's analysis depends only
// on its own CoupledNet view — its tree/driver/receiver plus the trees
// and drivers of the nets coupled to it. So an edit of net i invalidates
// exactly Design::affected_victims(i): i itself and the victims i
// appears in as an aggressor. `analyze` re-runs only dirty victims
// through a BatchAnalyzer sharing the resident cache and splices the
// fresh reports into the stored slots (the waveforms are dropped: only
// reports are ranked and rendered); because per-net analysis is
// deterministic, the assembled result is byte-identical to a cold full
// run over the same design state.
//
// Durability model (DESIGN.md §15): with a state directory configured,
// every mutating request (load_design, update_net, update_driver,
// config-with-set) is appended to a write-ahead journal BEFORE it is
// applied, and periodic atomic snapshots capture the materialized state
// and truncate the journal. start_durability() with recover=true
// restores the latest snapshot, replays the journal tail (tolerating a
// torn final record), and marks every victim dirty — the next analyze
// recomputes everything, and determinism makes its report byte-identical
// to what a never-crashed session would serve.
//
// Protocol: one JSON object per request line; one JSON object per
// response line, always carrying "schema_version", the echoed request
// "id", and "ok". Verbs: ping, load_design, update_net, update_driver,
// analyze, config, stats, save_cache, load_cache, snapshot, shutdown.
// Malformed input NEVER kills the session — it becomes an ok:false
// response with a Status code name. Requests exceeding the configured
// size/field-count limits are rejected the same way, before (bytes) or
// immediately after (nodes) parsing.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "clarinet/analysis_config.hpp"
#include "server/design.hpp"
#include "server/journal.hpp"
#include "server/snapshot.hpp"
#include "util/json.hpp"

namespace dn::server {

/// Admission-controller verdict for one request, decided at ENQUEUE time
/// (so responses keep request order):
///   kAccept  — run at full fidelity.
///   kDegrade — queue past the soft limit: analyze runs on the cheaper
///              Thevenin-holding rung (rtr_to_rth) and the recomputed
///              victims STAY dirty, so fidelity is restored by the next
///              unloaded analyze.
///   kShed    — queue past the hard limit: fail fast with kUnavailable
///              (transient — clients may retry) without executing.
enum class Admission { kAccept, kDegrade, kShed };

/// Crash-safety knobs. Durability is on iff state_dir is non-empty.
struct DurabilityOptions {
  /// Directory holding snapshot.json, journal.wal, and the cache sidecar.
  /// Empty disables journaling, snapshots, and recovery.
  std::string state_dir;
  /// Recover from existing state on start; false wipes any prior state.
  bool recover = false;
  durable::FsyncPolicy fsync = durable::FsyncPolicy::kNone;
  /// Successful mutations between automatic snapshots; 0 = only the
  /// explicit "snapshot" verb and the graceful-stop snapshot.
  std::uint64_t snapshot_every = 32;
  /// Cooperative per-request watchdog [ms]; 0 = off. Caps the analyze
  /// deadline, and an analyze that still overran it answers
  /// kDeadlineExceeded, journals an incident record, and leaves the
  /// unfinished victims dirty for the next attempt.
  double watchdog_ms = 0.0;
};

/// Per-request resource limits on the NDJSON surface; 0 disables a limit.
struct ProtocolLimits {
  std::size_t max_request_bytes = 4u << 20;  // Line length, pre-parse.
  std::size_t max_request_nodes = 262144;    // json::node_count post-parse.
  std::size_t max_design_nets = 1000000;     // load_design size cap.
};

class Session {
 public:
  explicit Session(AnalysisConfig cfg = {}, DurabilityOptions durability = {},
                   ProtocolLimits limits = {});

  /// Opens the journal and, when DurabilityOptions::recover is set,
  /// restores snapshot + journal tail first. Call once before the first
  /// handle_line; a no-op without a state_dir. Errors are fatal to the
  /// server start — a half-recovered session must not serve.
  Status start_durability();

  /// Graceful drain: snapshot the current state (truncating the journal)
  /// and close the journal. No-op without durability.
  Status graceful_stop();

  /// One request line -> one response object. Never throws.
  json::Value handle_line(const std::string& line,
                          Admission admission = Admission::kAccept);

  /// The response to a request line of `bytes` bytes, more than
  /// ProtocolLimits::max_request_bytes: kInvalidArgument, counted as a
  /// request and an error. handle_line answers long lines with it, and
  /// the transports call it for lines they stopped storing at the limit.
  json::Value reject_oversized(std::size_t bytes);

  /// True once a shutdown request has been handled.
  bool shutdown_requested() const { return shutdown_; }

  const AnalysisConfig& config() const { return cfg_; }
  bool recovered() const { return recovered_; }
  std::uint64_t journal_seq() const { return seq_; }
  std::uint64_t watchdog_trips() const { return watchdog_trips_; }

 private:
  json::Value respond(const json::Value* id, Status status,
                      json::Object result) const;

  /// The verb switch shared by live requests and journal replay; owns
  /// the try/catch Status boundary.
  Status dispatch_verb(const std::string& verb, const json::Value& req,
                       json::Object& result, Admission admission);

  Status verb_load_design(const json::Value& req, json::Object& result);
  Status verb_update_net(const json::Value& req, json::Object& result);
  Status verb_update_driver(const json::Value& req, json::Object& result);
  Status verb_analyze(const json::Value& req, json::Object& result,
                      Admission admission);
  Status verb_config(const json::Value& req, json::Object& result);
  Status verb_stats(json::Object& result);
  Status verb_save_cache(const json::Value& req, json::Object& result);
  Status verb_load_cache(const json::Value& req, json::Object& result);
  Status verb_snapshot(json::Object& result);

  /// True when the request mutates session state and must be journaled.
  static bool is_mutation(const std::string& verb, const json::Value& req);

  /// Writes an atomic snapshot and truncates the journal.
  Status snapshot_now();
  Status restore_from_snapshot(const SnapshotData& snap);

  /// Applies an edit's dirty closure for design net `net_index`.
  void invalidate(int net_index, json::Object& result);
  void mark_all_dirty();
  /// Rebuilds victims_/results_/dirty_ after a design (re)load.
  void rebind_design();

  AnalysisConfig cfg_;
  DurabilityOptions durability_;
  ProtocolLimits limits_;
  std::shared_ptr<CharacterizationCache> cache_;
  Journal journal_;

  bool has_design_ = false;
  Design design_;
  std::vector<int> victims_;          // Ordinal -> design net index.
  /// Last report per victim ordinal: results_.nets[o] is victim o's
  /// slot, stored without its waveforms, finalized and rendered in place.
  BatchResult results_;
  std::vector<bool> dirty_;           // Per victim ordinal.

  bool shutdown_ = false;
  std::uint64_t requests_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t degraded_admission_ = 0;
  std::uint64_t analyze_runs_ = 0;
  std::uint64_t nets_reanalyzed_ = 0;

  // Durability state. seq_ is monotone across snapshots AND recoveries:
  // a snapshot records the last covered seq, replay skips entries at or
  // below it, and new appends continue from the maximum ever seen.
  std::uint64_t seq_ = 0;
  std::uint64_t mutations_since_snapshot_ = 0;
  std::uint64_t snapshots_ = 0;
  std::uint64_t snapshot_failures_ = 0;
  std::uint64_t watchdog_trips_ = 0;
  std::uint64_t replayed_ = 0;
  bool recovered_ = false;
  bool torn_tail_discarded_ = false;
  /// Post-recovery warmup: the first analyze after recovery recomputes
  /// the whole design, so soft-pressure degradation would burn the full
  /// recompute on the cheap rung and leave everything dirty. Until one
  /// analyze succeeds, kDegrade admissions are promoted to kAccept.
  bool warmup_ = false;
  std::uint64_t warmup_promotions_ = 0;

  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

}  // namespace dn::server
