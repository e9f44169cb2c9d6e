#ifndef OOCQ_SUPPORT_CANCELLATION_H_
#define OOCQ_SUPPORT_CANCELLATION_H_

/// Cooperative cancellation for long-running engine work.
///
/// A CancellationToken combines an optional wall-clock deadline with an
/// explicit Cancel() flag. Work loops that can run unboundedly long — the
/// Thm 3.1 membership-subset scan, the redundancy containment matrix, the
/// Thm 4.3 self-mapping iteration — poll Check() between independent work
/// items and surface a retryable status instead of finishing the scan:
///
///   CancellationToken token = CancellationToken::AfterMillis(50);
///   ContainmentOptions options;
///   options.cancel = &token;
///   StatusOr<bool> verdict = Contained(schema, q1, q2, options);
///   // verdict.status().code() == kDeadlineExceeded when the 50 ms passed
///
/// The token is owned by the caller (typically one per service request)
/// and shared by address: the engine polls it between work items, so an
/// expiry aborts the request after its current item. Checks are a
/// relaxed atomic load plus (when a deadline is set) one steady_clock
/// read; they are safe from any thread.
///
/// Check() distinguishes the two causes: an expired deadline yields
/// kDeadlineExceeded, an explicit Cancel() yields kUnavailable — both
/// retryable (IsRetryable), so callers such as the ContainmentCache never
/// memoize them.

#include <atomic>
#include <chrono>
#include <cstdint>

#include "support/status.h"

namespace oocq {

class CancellationToken {
 public:
  /// A token that never expires on its own; only Cancel() trips it.
  CancellationToken() = default;

  /// A token that expires when `deadline` passes.
  explicit CancellationToken(std::chrono::steady_clock::time_point deadline)
      : has_deadline_(true), deadline_(deadline) {}

  /// A token expiring `millis` from now. 0 is an already-expired deadline
  /// (useful for tests of the abort path); use the default constructor
  /// for "no deadline".
  static CancellationToken AfterMillis(uint64_t millis) {
    return CancellationToken(std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(millis));
  }

  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Trips the token explicitly (shutdown, client disconnect). Idempotent
  /// and safe from any thread.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  bool has_deadline() const { return has_deadline_; }

  /// True when the token has tripped — explicitly or by deadline.
  bool Expired() const {
    if (cancelled()) return true;
    return has_deadline_ && std::chrono::steady_clock::now() >= deadline_;
  }

  /// Ok while live; kUnavailable after Cancel(); kDeadlineExceeded once
  /// the deadline passed. Poll between independent work items.
  Status Check() const {
    if (cancelled()) return Status::Unavailable("request cancelled");
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
      return Status::DeadlineExceeded("deadline exceeded");
    }
    return Status::Ok();
  }

 private:
  std::atomic<bool> cancelled_{false};
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
};

}  // namespace oocq

#endif  // OOCQ_SUPPORT_CANCELLATION_H_
