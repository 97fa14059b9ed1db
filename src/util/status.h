// Lightweight Status / StatusOr<T> result types.
//
// Supervised execution propagates enforcement-level failures (deadline
// expiry, livelock watchdog trips, injected faults) as data instead of
// asserts or silently-defaulted results: an aborted run must never be
// confused with a run that completed and simply did not fail. Kernel-level
// symptoms stay in sim::Failure; Status describes the health of the *run
// machinery* around them.

#ifndef SRC_UTIL_STATUS_H_
#define SRC_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace aitia {

enum class StatusCode {
  kOk = 0,
  kDeadlineExceeded,    // wall-clock deadline expired mid-run
  kResourceExhausted,   // step / schedule budget spent
  kAborted,             // watchdog detected a livelocked schedule
  kUnavailable,         // I/O or socket failure (no run produces it)
  kFailedPrecondition,  // the input has no concurrency failure to diagnose
  kInternal,            // invariant violation inside the pipeline
  kInvalidArgument,     // malformed input (trace parse / semantic errors)
  kNotFound,            // named entity (scenario, file) does not exist
  kCancelled,           // caller withdrew the request (service drain)
};

inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kAborted: return "ABORTED";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kCancelled: return "CANCELLED";
  }
  return "?";
}

class Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status DeadlineExceeded(std::string m) {
    return {StatusCode::kDeadlineExceeded, std::move(m)};
  }
  static Status ResourceExhausted(std::string m) {
    return {StatusCode::kResourceExhausted, std::move(m)};
  }
  static Status Aborted(std::string m) { return {StatusCode::kAborted, std::move(m)}; }
  static Status Unavailable(std::string m) {
    return {StatusCode::kUnavailable, std::move(m)};
  }
  static Status FailedPrecondition(std::string m) {
    return {StatusCode::kFailedPrecondition, std::move(m)};
  }
  static Status Internal(std::string m) { return {StatusCode::kInternal, std::move(m)}; }
  static Status InvalidArgument(std::string m) {
    return {StatusCode::kInvalidArgument, std::move(m)};
  }
  static Status NotFound(std::string m) { return {StatusCode::kNotFound, std::move(m)}; }
  static Status Cancelled(std::string m) { return {StatusCode::kCancelled, std::move(m)}; }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) {
      return "OK";
    }
    std::string out = StatusCodeName(code_);
    if (!message_.empty()) {
      out += ": ";
      out += message_;
    }
    return out;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline Status OkStatus() { return {}; }

// Either a value or the Status explaining its absence. Deliberately minimal:
// no exceptions, no abort-on-misuse beyond returning a default value — the
// caller is expected to branch on ok() first.
template <typename T>
class StatusOr {
 public:
  // Constructing from an OK status without a value is a caller bug; it is
  // normalized to kInternal so ok() and has-value stay equivalent.
  StatusOr(Status status)  // NOLINT(google-explicit-constructor)
      : status_(status.ok() ? Status::Internal("OK status without a value")
                            : std::move(status)) {}
  StatusOr(T value)  // NOLINT(google-explicit-constructor)
      : value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() & { return *value_; }
  const T& value() const& { return *value_; }
  T&& value() && { return *std::move(value_); }

  T& operator*() & { return *value_; }
  const T& operator*() const& { return *value_; }
  T* operator->() { return &*value_; }
  const T* operator->() const { return &*value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace aitia

#endif  // SRC_UTIL_STATUS_H_
