#include "clarinet/characterization_cache.hpp"

#include <fstream>
#include <sstream>
#include <vector>

#include "ceff/thevenin_table.hpp"
#include "rcnet/net_hash.hpp"
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

std::uint64_t key_hash(const GateTableKey& key) {
  std::uint64_t h = 0;
  for (const std::uint64_t word : key) h = fault::mix64(h ^ word);
  return h;
}

}  // namespace

CharacterizationCache::CharacterizationCache(AlignmentTableSpec spec)
    : spec_(std::move(spec)) {}

StatusOr<const AlignmentTable*> CharacterizationCache::try_table_for(
    const GateParams& receiver, bool victim_rising) {
  const GateTableKey key =
      gate_table_key(receiver, victim_rising, spec_.search.lte_tol,
                     spec_.search.stale_jacobian_iters);
  if (fault::should_fail(fault::Site::kCacheFill, key_hash(key)))
    return Status::Internal(
        "injected fault: alignment-table characterization");

  TableFound found{};
  StatusOr<const AlignmentTable*> table = tables_.get(
      key,
      [&] {
        obs::StageScope stage("cache.table", "characterize",
                              cache_metrics().seconds);
        return AlignmentTable::characterize(receiver, victim_rising, spec_,
                                            pool_);
      },
      &found);
  if (found == TableFound::kFilled) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    cache_metrics().misses.add();
    if (table.ok()) cache_metrics().tables.add();
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
    cache_metrics().hits.add();
    if (found == TableFound::kWaited) {
      contention_waits_.fetch_add(1, std::memory_order_relaxed);
      cache_metrics().waits.add();
    }
  }
  return table;
}

const AlignmentTable* CharacterizationCache::table_for(
    const GateParams& receiver, bool victim_rising) {
  auto table = try_table_for(receiver, victim_rising);
  table.status().throw_if_error();
  return *table;
}

namespace {

constexpr const char* kCacheMagic = "dnoise-char-cache";
// 4: tagged alignment and driver records (3 held alignment tables only).
constexpr int kCacheVersion = 4;
constexpr const char* kAlignmentTag = "alignment";
constexpr const char* kDriverTag = "driver";

std::uint64_t payload_hash(const std::string& payload) {
  HashStream h;
  h.str(payload);
  return h.digest();
}

}  // namespace

Status CharacterizationCache::save(std::ostream& os) const {
  std::ostringstream payload;
  std::size_t count = 0;
  const auto write = [&](const char* tag, const auto& table) {
    payload << tag << '\n';
    table.save(payload);
    ++count;
  };
  tables_.for_each([&](const AlignmentTable& t) { write(kAlignmentTag, t); });
  driver_tables().for_each(
      [&](const TheveninTable& t) { write(kDriverTag, t); });
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

  // Parse and check every record before installing any.
  std::istringstream records(payload);
  std::vector<AlignmentTable> alignment;
  std::vector<TheveninTable> drivers;
  for (std::size_t i = 0; i < count; ++i) {
    std::string tag;
    records >> tag;
    try {
      if (tag == kAlignmentTag) {
        alignment.push_back(AlignmentTable::load(records));
        if (alignment.back().spec() != spec_)
          return Status::FailedPrecondition(
              "characterization cache: table spec differs from this "
              "cache's spec");
      } else if (tag == kDriverTag) {
        drivers.push_back(TheveninTable::load(records));
        if (drivers.back().slews() != TheveninTable::default_slews() ||
            drivers.back().cloads() != TheveninTable::default_loads())
          return Status::FailedPrecondition(
              "characterization cache: driver table off the store's axes");
      } else {
        return Status::InvalidArgument(
            "characterization cache: unknown record tag '" + tag + "'");
      }
    } catch (const std::exception& e) {
      // Corrupt records the hash check could not catch (it validates
      // bytes, not semantics).
      return Status::InvalidArgument(std::string("characterization cache: ") +
                                     e.what());
    }
  }

  // Install each record through its store's fill path: the first table
  // for a key wins.
  std::size_t installed = 0;
  const auto install = [&](auto& store, auto& tables) {
    for (auto& t : tables) {
      TableFound found{};
      (void)store.get(t.key(), [&] { return std::move(t); }, &found);
      installed += found == TableFound::kFilled ? 1 : 0;
    }
  };
  install(tables_, alignment);
  install(driver_tables(), drivers);
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
