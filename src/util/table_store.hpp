// One store for characterization tables: driver tables per driver cell
// (ceff/thevenin_table.*) and alignment tables per receiver
// (core/alignment_table.*). A TableStore maps a content key to the table
// filled for it on first use and keeps it for the store's lifetime.
//
// Fill protocol: every fill runs inside a FillScope (fault probes
// suspended, no deadline), so a table is a pure function of its key,
// never of the thread or request that filled it. Both scopes are
// thread-local, so work a fill hands to other threads opens its own.
//
// Failure policy: a fill that throws stores its Status, and every lookup
// of that key returns that same status; a pure fill that failed once
// would fail again.
//
// Locking: a shared_mutex guards the key -> entry map (shared for
// lookups, exclusive for an insert). Entries are never erased, so table
// pointers stay valid. Each entry serializes its fill on its own mutex,
// outside the map lock, and publishes the outcome with a release store.
// It is a mutex, not a std::once_flag: std::call_once left by an
// exception hangs the next call under ThreadSanitizer.
#pragma once

#include <atomic>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>

#include "util/deadline.hpp"
#include "util/fault_injection.hpp"
#include "util/status.hpp"

namespace dn {

/// The thread-local half of the fill protocol.
struct FillScope {
  fault::ScopedSuspend no_faults;
  ScopedDeadline no_deadline{Deadline{}};
};

/// How a TableStore lookup met its key's outcome.
enum class TableFound {
  kReady,   // Already stored.
  kWaited,  // Blocked on another thread's fill of the key.
  kFilled,  // This call ran the fill.
};

template <class Key, class Table>
class TableStore {
 public:
  /// The table stored for `key`, or the status its fill failed with; a
  /// key with no outcome yet runs `fill()` (which returns the Table)
  /// inside a FillScope. `*found`, when non-null, says how the outcome
  /// was met. Thread-safe. A loader installs a table by passing a fill
  /// that returns it: the first table for a key wins.
  template <class Fill>
  StatusOr<const Table*> get(const Key& key, Fill&& fill,
                             TableFound* found = nullptr) {
    Entry& e = entry(key);
    TableFound how = TableFound::kReady;
    if (!e.done.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(e.fill_mu);
      how = TableFound::kWaited;
      if (!e.done.load(std::memory_order_acquire)) {
        how = TableFound::kFilled;
        FillScope scope;
        try {
          e.table = std::make_unique<const Table>(fill());
        } catch (const std::exception& ex) {
          e.status = status_from_exception(ex);
        }
        e.done.store(true, std::memory_order_release);
      }
    }
    if (found) *found = how;
    if (e.table) return e.table.get();
    return e.status;
  }

  /// Calls f(table) for every stored table, in key order. Failed and
  /// in-flight fills are skipped.
  template <class F>
  void for_each(F&& f) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (const auto& [key, e] : entries_)
      if (e->done.load(std::memory_order_acquire) && e->table) f(*e->table);
  }

  std::size_t size() const {
    std::size_t n = 0;
    for_each([&](const Table&) { ++n; });
    return n;
  }

 private:
  struct Entry {
    std::mutex fill_mu;                  // Held while filling this key.
    std::unique_ptr<const Table> table;  // Written under fill_mu.
    Status status;                       // The failure, when fill threw.
    std::atomic<bool> done{false};       // Set after table/status.
  };

  Entry& entry(const Key& key) {
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      const auto it = entries_.find(key);
      if (it != entries_.end()) return *it->second;
    }
    std::unique_lock<std::shared_mutex> lock(mu_);
    // A thread that lost the race to insert reuses the winner's entry.
    return *entries_.try_emplace(key, std::make_unique<Entry>())
                .first->second;
  }

  mutable std::shared_mutex mu_;
  std::map<Key, std::unique_ptr<Entry>> entries_;
};

}  // namespace dn
