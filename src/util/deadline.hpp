// dn::Deadline — cooperative cancellation for the analysis pipeline.
//
// A production batch run must bound its worst case: one pathological net
// (a 10k-node extraction, a barely-convergent Newton solve) cannot be
// allowed to hold a worker hostage forever. A Deadline is a small value
// type combining an optional wall-clock expiry with a shared cancel flag;
// copies observe the same cancellation.
//
// Propagation is ambient rather than threaded through every constructor:
// ScopedDeadline installs a deadline for the current thread, and the
// long-running loops (LinearSim/NonlinearSim steps, PRIMA Krylov
// iterations, alignment-table characterization, batch workers) poll
// deadline_checkpoint(), which throws DeadlineError when the active
// deadline has expired. The Status boundary maps that to
// kDeadlineExceeded. With no deadline installed a checkpoint is two
// thread-local reads and no clock access — free enough for step loops.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>

#include "util/status.hpp"

namespace dn {

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// No expiry, no cancel flag: never expires.
  Deadline() = default;

  /// Expires `seconds` from now (<= 0 means already expired; a budget
  /// beyond the clock's range never expires but stays cancellable).
  static Deadline after(double seconds);

  /// No expiry but cancellable: expires only when cancel() is called.
  static Deadline cancellable();

  /// True when this deadline can never expire.
  bool unlimited() const { return !has_expiry_ && !cancelled_; }

  /// True once past the expiry or after cancel() on any copy.
  bool expired() const {
    if (cancelled_ && cancelled_->load(std::memory_order_relaxed)) return true;
    return has_expiry_ && Clock::now() >= expiry_;
  }

  /// Flags every copy of this deadline as expired. No-op on a default
  /// (non-cancellable) deadline.
  void cancel() const {
    if (cancelled_) cancelled_->store(true, std::memory_order_relaxed);
  }

  /// Seconds until expiry (+inf when unlimited, <= 0 when expired).
  double remaining_s() const;

  /// kDeadlineExceeded naming `where` when expired, OK otherwise.
  Status check(const char* where) const;

 private:
  bool has_expiry_ = false;
  Clock::time_point expiry_{};
  std::shared_ptr<std::atomic<bool>> cancelled_;  // Shared across copies.
};

namespace detail {
// The ambient deadline is stored behind a global "any deadline anywhere"
// flag so the common case (no deadline in the whole process) costs one
// relaxed atomic load per checkpoint, mirroring the obs-metrics pattern.
inline std::atomic<bool> g_any_deadline{false};
const Deadline* current_deadline_ptr() noexcept;
void set_current_deadline(const Deadline* d) noexcept;
}  // namespace detail

/// The deadline installed on this thread (unlimited when none).
const Deadline& current_deadline() noexcept;

/// Throws DeadlineError(`where`) when the ambient deadline has expired.
/// Cost without any installed deadline: one relaxed atomic load.
inline void deadline_checkpoint(const char* where) {
  if (!detail::g_any_deadline.load(std::memory_order_relaxed)) return;
  const Deadline* d = detail::current_deadline_ptr();
  if (d && d->expired())
    throw DeadlineError(std::string("deadline exceeded in ") + where);
}

/// Installs `d` as the current thread's ambient deadline for this scope,
/// restoring the previous one (supports nesting) on destruction.
class ScopedDeadline {
 public:
  explicit ScopedDeadline(const Deadline& d);
  ~ScopedDeadline();

  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

 private:
  Deadline deadline_;            // Stable storage for the installed pointer.
  const Deadline* previous_;
};

}  // namespace dn
