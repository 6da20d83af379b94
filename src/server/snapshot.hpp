// Atomic session snapshots for the durable server.
//
// A snapshot is one JSON file capturing everything the session needs to
// answer requests identically after a restart: the fully materialized
// Design (not its generation spec — SPEF files may have moved), the
// AnalysisConfig, the sequence number of the last mutation covered, and
// a pointer to the characterization-cache sidecar with its whole-file
// content hash.
// It is written with durable::atomic_write_file, so a crash mid-snapshot
// leaves the previous snapshot intact, and a successful write is
// immediately followed by truncating the journal it supersedes.
//
// The cache is a pure performance artifact — analysis results never
// depend on whether a cache hit or re-derived — so recovery loads it
// best-effort: a missing, hash-mismatched, or spec-skewed sidecar is
// simply skipped and the tables are recomputed on demand.
#pragma once

#include <cstdint>
#include <string>

#include "util/json.hpp"
#include "util/status.hpp"

namespace dn::server {

struct SnapshotData {
  /// Sequence number of the last journaled mutation this state covers.
  std::uint64_t seq = 0;
  json::Value config;  // AnalysisConfig::to_json().
  bool has_design = false;
  json::Value design;  // Design::to_json() when has_design.
  /// Cache sidecar, relative to the state directory; empty = none.
  /// The hash is FNV-1a over the sidecar's whole byte content at
  /// snapshot time — recovery verifies it before feeding the file to
  /// the cache loader (which re-verifies its own embedded payload hash).
  std::string char_cache_file;
  std::uint64_t char_cache_hash = 0;
};

/// Atomically replaces `path` with the serialized snapshot.
Status write_snapshot(const std::string& path, const SnapshotData& snap);

/// Reads and validates a snapshot file. kNotFound when absent; malformed
/// or version-skewed content is kInvalidArgument, never a crash.
StatusOr<SnapshotData> read_snapshot(const std::string& path);

}  // namespace dn::server
