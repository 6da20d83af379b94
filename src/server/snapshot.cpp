#include "server/snapshot.hpp"

#include <cstdio>
#include <cstdlib>

#include "util/durable_io.hpp"

namespace dn::server {

namespace {

constexpr int kSnapshotVersion = 1;

/// u64 content hashes cannot ride a JSON number (doubles lose the top
/// bits), so they travel as fixed hex strings.
std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

StatusOr<std::uint64_t> parse_hex64(const json::Value& v, const char* what) {
  StatusOr<std::string> s = v.require_string(what);
  if (!s.ok()) return s.status();
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(s->c_str(), &end, 16);
  if (s->empty() || end != s->c_str() + s->size())
    return Status::InvalidArgument(std::string(what) +
                                   " must be a hex string");
  return static_cast<std::uint64_t>(parsed);
}

Status malformed(const std::string& what) {
  return Status::InvalidArgument("snapshot: " + what);
}

}  // namespace

Status write_snapshot(const std::string& path, const SnapshotData& snap) {
  json::Object o;
  o["snapshot_version"] = kSnapshotVersion;
  o["seq"] = snap.seq;
  o["config"] = snap.config;
  o["has_design"] = snap.has_design;
  if (snap.has_design) o["design"] = snap.design;
  if (!snap.char_cache_file.empty()) {
    o["char_cache"] = snap.char_cache_file;
    o["char_cache_hash"] = hex64(snap.char_cache_hash);
  }
  return durable::atomic_write_file(path,
                                    json::Value(std::move(o)).dump() + "\n");
}

StatusOr<SnapshotData> read_snapshot(const std::string& path) {
  StatusOr<std::string> bytes = durable::read_file(path);
  if (!bytes.ok()) return bytes.status();
  StatusOr<json::Value> doc = json::parse(*bytes);
  if (!doc.ok())
    return malformed("unparseable (" + doc.status().message() + ")");
  if (!doc->is_object()) return malformed("document must be an object");

  const json::Value* version = doc->find("snapshot_version");
  if (!version || !version->is_number())
    return malformed("missing snapshot_version");
  if (static_cast<int>(version->as_number()) != kSnapshotVersion)
    return malformed("unsupported snapshot_version");

  SnapshotData snap;
  const json::Value* seq = doc->find("seq");
  if (!seq || !seq->is_number()) return malformed("missing seq");
  snap.seq = static_cast<std::uint64_t>(seq->as_number());

  const json::Value* config = doc->find("config");
  if (!config || !config->is_object()) return malformed("missing config");
  snap.config = *config;

  const json::Value* has_design = doc->find("has_design");
  if (!has_design || !has_design->is_bool())
    return malformed("missing has_design");
  snap.has_design = has_design->as_bool();
  if (snap.has_design) {
    const json::Value* design = doc->find("design");
    if (!design || !design->is_object())
      return malformed("has_design without design");
    snap.design = *design;
  }

  if (const json::Value* f = doc->find("char_cache")) {
    StatusOr<std::string> name = f->require_string("char_cache");
    if (!name.ok()) return name.status();
    const json::Value* h = doc->find("char_cache_hash");
    if (!h) return malformed("char_cache without char_cache_hash");
    StatusOr<std::uint64_t> hash = parse_hex64(*h, "char_cache_hash");
    if (!hash.ok()) return hash.status();
    snap.char_cache_file = std::move(*name);
    snap.char_cache_hash = *hash;
  }
  return snap;
}

}  // namespace dn::server
