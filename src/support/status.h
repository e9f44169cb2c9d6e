#ifndef OOCQ_SUPPORT_STATUS_H_
#define OOCQ_SUPPORT_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace oocq {

/// Error categories used across the library. The library never throws;
/// every fallible operation returns a Status or StatusOr<T>.
enum class StatusCode {
  kOk = 0,
  /// The caller supplied an argument that is malformed in isolation
  /// (e.g., an unknown class name, a variable without a quantifier).
  kInvalidArgument = 1,
  /// The inputs are individually valid but violate a precondition of the
  /// operation (e.g., running containment on a non-terminal query).
  kFailedPrecondition = 2,
  /// A lookup failed (e.g., no class with the given name).
  kNotFound = 3,
  /// A configurable resource limit was exceeded (e.g., the augmentation
  /// enumeration cap in the general containment test, or a ResourceBudget
  /// cap on expansion/scan work). Retryable: the same request may succeed
  /// under a larger budget or once concurrent load drains.
  kResourceExhausted = 4,
  /// An internal invariant was violated; indicates a library bug.
  kInternal = 5,
  /// The operation's deadline passed before it completed. Retryable: the
  /// same request with a fresh (or longer) deadline may succeed.
  kDeadlineExceeded = 6,
  /// The operation was refused or aborted for a transient reason — an
  /// admission queue at capacity, a server draining for shutdown, or an
  /// explicit cancellation. Retryable after backoff.
  kUnavailable = 7,
};

/// True for the transient codes a client should retry (with backoff):
/// kResourceExhausted, kDeadlineExceeded, and kUnavailable. This is the
/// single source of truth for the retryable taxonomy — servers use it to
/// classify outcomes, the containment cache uses it to decide which
/// errors to memoize, and clients use it to gate backoff-retry
/// (docs/robustness.md).
inline bool IsRetryable(StatusCode code) {
  return code == StatusCode::kResourceExhausted ||
         code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kUnavailable;
}

/// Returns a human-readable name for `code` ("OK", "INVALID_ARGUMENT", ...).
const char* StatusCodeToString(StatusCode code);

/// A lightweight success-or-error result, modeled after absl::Status.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

namespace internal_status {
[[noreturn]] inline void DieBadAccess(const Status& status) {
  std::fprintf(stderr, "StatusOr access on non-OK status: %s\n",
               status.ToString().c_str());
  std::abort();
}
}  // namespace internal_status

/// Holds either a value of type T or an error Status, modeled after
/// absl::StatusOr. Accessing the value of a non-OK StatusOr aborts.
template <typename T>
class StatusOr {
 public:
  /// Constructs from a value (implicit, to allow `return value;`).
  StatusOr(T value) : status_(), value_(std::move(value)) {}
  /// Constructs from an error status (implicit, to allow `return status;`).
  /// The status must not be OK.
  StatusOr(Status status) : status_(std::move(status)) {
    if (status_.ok()) {
      status_ = Status::Internal("StatusOr constructed from OK status");
    }
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const& { return status_; }
  /// On a temporary (`f().status()`) the status is moved out by value, so
  /// no reference into the dying StatusOr escapes the full-expression.
  Status status() && { return std::move(status_); }

  const T& value() const& {
    if (!ok()) internal_status::DieBadAccess(status_);
    return *value_;
  }
  T& value() & {
    if (!ok()) internal_status::DieBadAccess(status_);
    return *value_;
  }
  T&& value() && {
    if (!ok()) internal_status::DieBadAccess(status_);
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace oocq

#endif  // OOCQ_SUPPORT_STATUS_H_
