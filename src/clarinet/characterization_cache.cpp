#include "clarinet/characterization_cache.hpp"

#include <bit>
#include <fstream>
#include <optional>
#include <sstream>

#include "rcnet/net_hash.hpp"
#include "util/deadline.hpp"
#include "util/durable_io.hpp"
#include "util/fault_injection.hpp"
#include "util/trace.hpp"

namespace dn {

namespace {

struct CacheMetrics {
  obs::Counter& hits = obs::metrics().counter("cache.hits");
  obs::Counter& misses = obs::metrics().counter("cache.misses");
  obs::Counter& waits = obs::metrics().counter("cache.contention_waits");
  obs::Counter& tables = obs::metrics().counter("characterize.tables");
  obs::Histogram& seconds =
      obs::metrics().histogram("stage.characterize.seconds");
};

CacheMetrics& cache_metrics() {
  static CacheMetrics m;
  return m;
}

}  // namespace

CharacterizationCache::CharacterizationCache(AlignmentTableSpec spec)
    : spec_(std::move(spec)) {}

CharacterizationCache::Entry* CharacterizationCache::entry_for(const Key& key) {
  {
    std::shared_lock<std::shared_mutex> lk(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) return it->second.get();
  }
  std::unique_lock<std::shared_mutex> lk(mu_);
  // try_emplace: a thread that lost the upgrade race reuses the winner's
  // placeholder entry instead of clobbering it.
  const auto [it, inserted] =
      entries_.try_emplace(key, std::make_unique<Entry>());
  (void)inserted;
  return it->second.get();
}

StatusOr<const AlignmentTable*> CharacterizationCache::try_table_for(
    const GateParams& receiver, bool victim_rising) {
  const Key key{receiver.type, receiver.size, receiver.vdd, victim_rising};
  Entry* entry = entry_for(key);

  // `ready` distinguishes a clean hit from a hit that blocked on another
  // thread's in-flight characterization (once-flag contention).
  const bool was_ready = entry->ready.load(std::memory_order_acquire);
  bool characterized_here = false;
  std::call_once(entry->once, [&] {
    characterized_here = true;
    // The fill produces SHARED state: its outcome must be a function of
    // the cache key alone, never of which net's worker got here first.
    // So it runs under its own fault-injection context (keyed by the
    // key), shielded from the calling net's deadline (one net's budget
    // must not poison the entry for every later net), and any failure is
    // caught into the entry so call_once completes and every future
    // lookup observes the identical status.
    const std::uint64_t key_hash =
        fault::mix64(static_cast<std::uint64_t>(receiver.type)) ^
        fault::mix64(std::bit_cast<std::uint64_t>(receiver.size)) ^
        fault::mix64(std::bit_cast<std::uint64_t>(receiver.vdd)) ^
        fault::mix64(victim_rising ? 1 : 2);
    fault::ScopedContext fault_ctx(key_hash);
    ScopedDeadline no_deadline{Deadline{}};
    obs::StageScope stage("cache.table", "characterize",
                          cache_metrics().seconds);
    try {
      if (fault::should_fail(fault::Site::kCacheFill, key_hash))
        throw std::runtime_error(
            "injected fault: alignment-table characterization");
      entry->table = std::make_unique<const AlignmentTable>(
          AlignmentTable::characterize(receiver, victim_rising, spec_,
                                       fault::enabled() ? nullptr : pool_));
    } catch (const std::exception& e) {
      entry->status = status_from_exception(e);
    }
    entry->ready.store(true, std::memory_order_release);
  });
  if (characterized_here) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    cache_metrics().misses.add();
    if (entry->table) cache_metrics().tables.add();
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
    cache_metrics().hits.add();
    if (!was_ready) {
      contention_waits_.fetch_add(1, std::memory_order_relaxed);
      cache_metrics().waits.add();
    }
  }
  if (entry->table) return entry->table.get();
  return entry->status;
}

const AlignmentTable* CharacterizationCache::table_for(
    const GateParams& receiver, bool victim_rising) {
  auto table = try_table_for(receiver, victim_rising);
  table.status().throw_if_error();
  return *table;
}

std::size_t CharacterizationCache::tables_cached() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return entries_.size();
}

namespace {

constexpr const char* kCacheMagic = "dnoise-char-cache";
constexpr int kCacheVersion = 3;

std::uint64_t payload_hash(const std::string& payload) {
  HashStream h;
  h.str(payload);
  return h.digest();
}

}  // namespace

Status CharacterizationCache::save(std::ostream& os) const {
  // Snapshot the finished tables under the shared lock (pointers are
  // stable, so serialization can run outside it — but entries are tiny
  // text records, so simplicity wins: serialize inside).
  std::ostringstream payload;
  std::size_t count = 0;
  {
    std::shared_lock<std::shared_mutex> lk(mu_);
    for (const auto& [key, entry] : entries_) {
      if (!entry->ready.load(std::memory_order_acquire) || !entry->table)
        continue;  // In-flight or failed: not worth persisting.
      entry->table->save(payload);
      ++count;
    }
  }
  const std::string bytes = payload.str();
  os << kCacheMagic << ' ' << kCacheVersion << ' ' << count << ' ' << std::hex
     << payload_hash(bytes) << std::dec << '\n'
     << bytes;
  if (!os) return Status::Internal("characterization cache: write failed");
  return Status::Ok();
}

Status CharacterizationCache::save_file(const std::string& path) const {
  // Atomic tmp+rename: a reader (or a crash mid-save) never observes a
  // half-written cache file — it sees the old file or the new one.
  std::ostringstream os;
  const Status s = save(os);
  if (!s.ok()) return s;
  return durable::atomic_write_file(path, os.str());
}

StatusOr<std::size_t> CharacterizationCache::load(std::istream& is) {
  std::string magic;
  int version = 0;
  std::size_t count = 0;
  std::uint64_t stored_hash = 0;
  is >> magic >> version >> count >> std::hex >> stored_hash >> std::dec;
  if (!is || magic != kCacheMagic)
    return Status::InvalidArgument(
        "characterization cache: unrecognized file header");
  if (version != kCacheVersion)
    return Status::InvalidArgument(
        "characterization cache: unsupported version " +
        std::to_string(version));
  is.ignore(1);  // The newline ending the header line.

  // Content-hash validation: the ENTIRE payload must match the header's
  // hash before any table is installed — a torn write or a hand-edited
  // record rejects the file whole instead of half-loading.
  std::ostringstream rest;
  rest << is.rdbuf();
  const std::string payload = rest.str();
  if (payload_hash(payload) != stored_hash)
    return Status::InvalidArgument(
        "characterization cache: content hash mismatch (corrupt or "
        "truncated file)");

  std::istringstream records(payload);
  std::size_t installed = 0;
  for (std::size_t i = 0; i < count; ++i) {
    std::optional<AlignmentTable> loaded;
    try {
      loaded.emplace(AlignmentTable::load(records));
    } catch (const std::exception& e) {
      // Corrupt records the hash check could not catch (it validates
      // bytes, not semantics).
      return Status::InvalidArgument(std::string("characterization cache: ") +
                                     e.what());
    }
    if (loaded->spec() != spec_)
      return Status::FailedPrecondition(
          "characterization cache: table spec differs from this cache's "
          "spec");
    const GateParams& receiver = loaded->receiver();
    const Key key{receiver.type, receiver.size, receiver.vdd,
                  loaded->victim_rising()};
    Entry* entry = entry_for(key);
    std::call_once(entry->once, [&] {
      entry->table =
          std::make_unique<const AlignmentTable>(std::move(*loaded));
      entry->ready.store(true, std::memory_order_release);
      ++installed;
    });
    // A key already characterized live keeps its live table: pointers
    // handed out earlier must stay valid.
  }
  return installed;
}

StatusOr<std::size_t> CharacterizationCache::load_file(
    const std::string& path) {
  std::ifstream is(path);
  if (!is)
    return Status::NotFound("characterization cache: cannot read " + path);
  return load(is);
}

}  // namespace dn
