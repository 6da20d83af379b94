// Graceful-degradation ladder: when a net's analysis hits a recoverable
// failure, the pipeline steps down to a cheaper/safer method instead of
// failing the net outright, and *records* that it did so. The rungs
// (DESIGN.md §10):
//
//   rtr_to_rth        Rtr Newton non-convergence -> aggregate Rth
//                     (pessimistic holding resistance)
//   table_to_vdd2     alignment-table characterization failure ->
//                     peak-aligned-at-Vdd/2 baseline (paper method [5])
//   sparse_to_dense   sparse LU pivot failure -> dense backend
//
// Recording uses the same ambient thread-local pattern as deadlines and
// fault contexts: the Status boundary installs a degrade::ScopedLog, the
// rung sites call degrade::record(), and the boundary takes the entries
// into the net's result. With no active log, record() is a no-op beyond
// an obs counter bump.
#pragma once

#include <string>
#include <vector>

namespace dn {

enum class DegradeKind : int {
  kRtrToRth = 0,
  kTableToVdd2,
  kSparseToDense,
  kCount,
};

const char* degrade_kind_name(DegradeKind k);

/// One recorded step down the ladder.
struct Degradation {
  DegradeKind kind;
  std::string detail;  // What failed, e.g. "rtr Newton diverged after 40 it".
  int count = 1;       // Collapsed occurrences (see dedup_degradations).
};

/// Collapses repeated rungs: one entry per kind, first detail kept,
/// `count` totalling the occurrences. A net whose every factorization
/// fell back to dense reports sparse_to_dense once, not once per solve.
std::vector<Degradation> dedup_degradations(std::vector<Degradation> log);

/// Which rungs a run permits. All on by default; switching one off turns
/// that failure back into a hard error for the net.
struct DegradePolicy {
  bool rtr_to_rth = true;
  bool table_to_vdd2 = true;
  bool sparse_to_dense = true;
  /// Nothing in src/ reads this; perfbench/ still sets it (see ROADMAP).
  bool mor_to_unreduced = true;

  bool allows(DegradeKind k) const;
};

namespace degrade {

/// Collects degradations recorded on this thread for the current scope
/// (one net's analysis attempt, one table characterization). Nests;
/// restores the outer log on destruction.
class ScopedLog {
 public:
  ScopedLog();
  ~ScopedLog();

  /// Entries recorded since construction (moves them out).
  std::vector<Degradation> take() { return std::move(entries_); }

  ScopedLog(const ScopedLog&) = delete;
  ScopedLog& operator=(const ScopedLog&) = delete;

 private:
  friend void record(DegradeKind, std::string);
  std::vector<Degradation> entries_;
  ScopedLog* previous_;
};

/// True when a ScopedLog is active on this thread.
bool active() noexcept;

/// Appends to the active log (no-op without one) and bumps the
/// "degrade.<kind>" obs counter.
void record(DegradeKind kind, std::string detail);

}  // namespace degrade
}  // namespace dn
