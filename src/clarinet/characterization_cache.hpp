// Thread-safe characterization cache: the 8-point alignment tables of one
// table spec, shared by every analyzer and worker of a run or server
// session, and the file that persists them with the process's driver
// tables.
//
// An AlignmentTable costs eight exhaustive alignment searches — by far
// the most expensive step of the flow — but depends only on the receiver
// and the victim transition direction, like a library
// pre-characterization. The tables live in a TableStore
// (util/table_store.hpp), which fixes how they fill and fail.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/alignment_table.hpp"
#include "util/status.hpp"
#include "util/table_store.hpp"

namespace dn {

class CharacterizationCache {
 public:
  /// `spec` parameterizes every table this cache characterizes.
  explicit CharacterizationCache(AlignmentTableSpec spec = {});

  CharacterizationCache(const CharacterizationCache&) = delete;
  CharacterizationCache& operator=(const CharacterizationCache&) = delete;

  /// The 8-point table for a receiver condition, characterizing it on
  /// first use; the pointer stays valid for the cache's lifetime.
  /// Thread-safe. The `cache` fault site is probed here, from the key,
  /// before the store: an injected fault fails this lookup alone and is
  /// never stored.
  StatusOr<const AlignmentTable*> try_table_for(const GateParams& receiver,
                                                bool victim_rising);

  /// Throwing wrapper around try_table_for.
  const AlignmentTable* table_for(const GateParams& receiver,
                                  bool victim_rising);

  /// Tables characterized or loaded so far (what save() writes; failed
  /// and in-flight fills do not count).
  std::size_t tables_cached() const { return tables_.size(); }

  /// Lookup counters: a hit found a finished outcome; a miss performed
  /// the characterization. (A thread that waits on another thread's
  /// in-flight characterization counts as a hit — it did not pay for the
  /// work.) A lookup failed by an injected fault counts as neither.
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Hits that had to BLOCK on another thread's in-flight characterization
  /// of the same key — the batch engine's main cold-start serialization.
  /// Also exported as obs counter "cache.contention_waits".
  std::uint64_t contention_waits() const {
    return contention_waits_.load(std::memory_order_relaxed);
  }

  const AlignmentTableSpec& spec() const { return spec_; }

  /// Optional worker pool for intra-table corner parallelism: fills pass
  /// it to AlignmentTable::characterize so one cold table uses up to 8
  /// workers instead of serializing on the filling thread — the --jobs
  /// win for runs with few distinct receiver conditions. The pool must
  /// outlive every fill (the owner clears it before destroying the
  /// pool). Not synchronized — set it before handing the cache to
  /// workers.
  void set_characterization_pool(ThreadPool* pool) { pool_ = pool; }

  /// Disk persistence. save() writes this cache's tables and the
  /// process-wide driver tables (driver_tables()) as tagged records in
  /// key order, under a header carrying an FNV-1a hash of the payload.
  /// load() rejects the file whole when that hash does not match
  /// (kInvalidArgument), or when an alignment table's spec differs from
  /// this cache's or a driver table is off the store's axes
  /// (kFailedPrecondition); then it installs each record into its own
  /// store. The first table for a key wins, so pointers handed out
  /// earlier stay valid. Returns the number of tables installed.
  Status save(std::ostream& os) const;
  Status save_file(const std::string& path) const;
  StatusOr<std::size_t> load(std::istream& is);
  StatusOr<std::size_t> load_file(const std::string& path);

 private:
  AlignmentTableSpec spec_;
  ThreadPool* pool_ = nullptr;  // Optional; see set_characterization_pool.
  TableStore<GateTableKey, AlignmentTable> tables_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> contention_waits_{0};
};

}  // namespace dn
