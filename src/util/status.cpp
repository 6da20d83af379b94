#include "util/status.hpp"

namespace dn {

const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kNumericError: return "NUMERIC_ERROR";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
  }
  return "UNKNOWN";
}

Status status_from_exception(const std::exception& e) {
  if (dynamic_cast<const DeadlineError*>(&e))
    return Status::DeadlineExceeded(e.what());
  if (dynamic_cast<const NumericError*>(&e))
    return Status::NumericFailure(e.what());
  if (dynamic_cast<const TransientError*>(&e))
    return Status::Unavailable(e.what());
  if (dynamic_cast<const std::invalid_argument*>(&e))
    return Status::InvalidArgument(e.what());
  return Status::Internal(e.what());
}

void raise(const Status& s) {
  switch (s.code()) {
    case StatusCode::kDeadlineExceeded: throw DeadlineError(s.message());
    case StatusCode::kNumericError: throw NumericError(s.message());
    case StatusCode::kUnavailable: throw TransientError(s.message());
    case StatusCode::kInvalidArgument:
      throw std::invalid_argument(s.message());
    case StatusCode::kInternal: throw std::runtime_error(s.message());
    default: throw std::runtime_error(s.to_string());
  }
}

std::string Status::to_string() const {
  if (ok()) return "OK";
  std::string s = status_code_name(code_);
  if (!message_.empty()) {
    s += ": ";
    s += message_;
  }
  return s;
}

}  // namespace dn
