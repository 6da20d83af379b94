#include "util/deadline.hpp"

#include <algorithm>
#include <limits>

namespace dn {

namespace detail {

namespace {
thread_local const Deadline* t_current = nullptr;
// Threads with an installed deadline; keeps g_any_deadline accurate when
// nested scopes on several threads come and go.
std::atomic<int> g_installed{0};
}  // namespace

const Deadline* current_deadline_ptr() noexcept { return t_current; }

void set_current_deadline(const Deadline* d) noexcept {
  const bool had = t_current != nullptr;
  t_current = d;
  if (d && !had) {
    if (g_installed.fetch_add(1, std::memory_order_relaxed) == 0)
      g_any_deadline.store(true, std::memory_order_relaxed);
  } else if (!d && had) {
    if (g_installed.fetch_sub(1, std::memory_order_relaxed) == 1)
      g_any_deadline.store(false, std::memory_order_relaxed);
  }
}

}  // namespace detail

Deadline Deadline::after(double seconds) {
  // The cast below overflows the clock's int64 count for huge |seconds|:
  // past half its range (~146 years for ns ticks) a deadline saturates to
  // "no expiry", and a negative budget clamps to "expires now".
  static const double kMaxSeconds =
      0.5 * std::chrono::duration<double>(Clock::duration::max()).count();
  Deadline d;
  d.has_expiry_ = seconds < kMaxSeconds;
  if (d.has_expiry_)
    d.expiry_ = Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(std::max(seconds, 0.0)));
  d.cancelled_ = std::make_shared<std::atomic<bool>>(false);
  return d;
}

Deadline Deadline::cancellable() {
  Deadline d;
  d.cancelled_ = std::make_shared<std::atomic<bool>>(false);
  return d;
}

double Deadline::remaining_s() const {
  if (cancelled_ && cancelled_->load(std::memory_order_relaxed)) return 0.0;
  if (!has_expiry_) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double>(expiry_ - Clock::now()).count();
}

Status Deadline::check(const char* where) const {
  if (!expired()) return Status::Ok();
  return Status::DeadlineExceeded(std::string("deadline exceeded in ") + where);
}

ScopedDeadline::ScopedDeadline(const Deadline& d)
    : deadline_(d), previous_(detail::current_deadline_ptr()) {
  // An unlimited deadline still installs (it shadows an outer one for the
  // scope, letting a subsystem opt out of a caller's budget if ever
  // needed), but the checkpoint fast-path stays cheap either way.
  detail::set_current_deadline(&deadline_);
}

ScopedDeadline::~ScopedDeadline() {
  detail::set_current_deadline(previous_);
}

}  // namespace dn
