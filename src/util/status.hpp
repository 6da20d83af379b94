// Status / StatusOr<T>: exception-free error propagation for the public
// entry points.
//
// The batch engine analyzes millions of nets per chip; one malformed SPEF
// block or one non-converging characterization must be *recorded* and
// skipped, not allowed to unwind the whole run. The try_*/StatusOr
// surface is the ONLY public API: the legacy throwing wrappers
// (NoiseAnalyzer::analyze, read_spef{,_file}, value_or_throw, the
// LuFactor constructor) and their DN_ALLOW_DEPRECATED escape hatch were
// deleted once every call site migrated. Exceptions remain an internal
// mechanism below the Status boundary (the typed failure classes here),
// never part of a public signature.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace dn {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,     // Malformed input (bad SPEF, inconsistent net).
  kFailedPrecondition,  // Input valid but unusable (missing table, bad cfg).
  kInternal,            // Analysis step failed (solver, characterization).
  kNotFound,            // File or entity missing.
  kDeadlineExceeded,    // Cancelled by a dn::Deadline (util/deadline.hpp).
  kNumericError,        // Non-finite values detected (NaN/Inf node voltage).
  kUnavailable,         // Transient failure; retrying may succeed.
};

const char* status_code_name(StatusCode code);

// Typed failure exceptions for the layers that still unwind with throw
// (the simulators and everything below them). The Status boundary
// (NoiseAnalyzer::try_analyze and friends) maps each type onto its
// StatusCode via status_from_exception(), so a NaN deep inside a Newton
// solve surfaces as kNumericError rather than an anonymous kInternal.
class NumericError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class DeadlineError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Transient failure (resource exhaustion, an overloaded or draining
/// server): the client may retry the request later.
class TransientError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Newton/fix-point non-convergence — the degradation ladder's trigger
/// for falling back from Rtr to the aggregate Rth.
class ConvergenceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class [[nodiscard]] Status {
 public:
  Status() = default;  // OK.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status NumericFailure(std::string msg) {
    return Status(StatusCode::kNumericError, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "<code>: <message>" (or "OK").
  std::string to_string() const;

  /// Throws std::runtime_error when not OK — the bridge back into the
  /// legacy throwing API surface.
  void throw_if_error() const {
    if (!ok()) throw std::runtime_error(to_string());
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Maps a caught exception onto the Status taxonomy: DeadlineError ->
/// kDeadlineExceeded, NumericError -> kNumericError, TransientError ->
/// kUnavailable, ConvergenceError and everything else -> kInternal
/// (std::invalid_argument -> kInvalidArgument).
Status status_from_exception(const std::exception& e);

/// Inverse bridge: re-raises a non-OK Status as the matching typed
/// exception (kDeadlineExceeded -> DeadlineError, kNumericError ->
/// NumericError, kUnavailable -> TransientError, kInvalidArgument ->
/// std::invalid_argument, kInternal -> std::runtime_error of the message,
/// everything else -> std::runtime_error of the status text). The
/// internal layers that still unwind with throw (superposition, Ceff,
/// Rtr, alignment) use this to consume the simulators' StatusOr surface
/// without losing the taxonomy the analyzer boundary and the degradation
/// ladder key on. status_from_exception(raise(s)) round-trips the code,
/// and the message too for these five codes.
[[noreturn]] void raise(const Status& s);

/// A value or the Status explaining its absence.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design.
  StatusOr(Status status) : status_(std::move(status)) {
    if (status_.ok())
      status_ = Status::Internal("StatusOr constructed from OK status");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& { return value_.value(); }
  T& value() & { return value_.value(); }
  T&& value() && { return std::move(value_).value(); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

 private:
  Status status_;  // OK iff value_ holds.
  std::optional<T> value_;
};

}  // namespace dn
