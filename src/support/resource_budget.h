#ifndef OOCQ_SUPPORT_RESOURCE_BUDGET_H_
#define OOCQ_SUPPORT_RESOURCE_BUDGET_H_

/// Cooperative resource governance for the engine's exponential paths
/// (docs/robustness.md). The Prop 2.1 expansion multiplies disjuncts
/// over terminal classes and the Thm 3.1 subset scan walks 2^|T|
/// candidate sets; a ResourceBudget bounds both — plus the bytes a
/// server keeps resident for session catalogs — so an adversarial
/// schema degrades into a retryable kResourceExhausted instead of
/// exhausting memory.
///
/// Work loops charge the budget between independent items, exactly
/// where they poll a CancellationToken:
///
///   ResourceBudget budget({.max_subset_work_units = 1 << 16});
///   ContainmentOptions options;
///   options.budget = &budget;
///   StatusOr<bool> verdict = Contained(schema, q1, q2, options);
///   // kResourceExhausted once the scan passes 2^16 masks
///
/// Budgets chain: a per-request budget constructed with a parent charges
/// both, so the parent acts as the *session-wide* cap on concurrently
/// resident work while the child caps one request. The destructor
/// returns everything this budget charged to the chain above it, making
/// per-request budgets self-cleaning leases on the service budget.
/// Resident bytes are the exception — they outlive requests (a session's
/// schema stays resident until dropped), so they are charged on the
/// service budget directly and released explicitly.
///
/// All counters are atomics; Charge*() is one fetch_add plus a compare,
/// safe from the concurrent requests sharing a budget. Overruns undo their
/// charge, so a shared budget never sticks above its limit because of a
/// refused request.

#include <atomic>
#include <cstdint>
#include <string>

#include "support/status.h"

namespace oocq {

/// Limits (0 = unlimited) for the three governed axes.
struct ResourceLimits {
  /// Cap on Prop 2.1 terminal disjuncts materialized.
  uint64_t max_expanded_disjuncts = 0;
  /// Cap on Thm 3.1 subset-scan work units (one per membership-subset
  /// mask scanned, across all augmentations and disjunct tests).
  uint64_t max_subset_work_units = 0;
  /// Cap on resident catalog bytes (schema/query/state source text a
  /// service keeps registered).
  uint64_t max_resident_bytes = 0;

  bool AnySet() const {
    return max_expanded_disjuncts != 0 || max_subset_work_units != 0 ||
           max_resident_bytes != 0;
  }
};

class ResourceBudget {
 public:
  explicit ResourceBudget(ResourceLimits limits,
                          ResourceBudget* parent = nullptr)
      : limits_(limits), parent_(parent) {}

  /// Returns this budget's work charges to the parent chain (resident
  /// bytes are explicit — see the header comment).
  ~ResourceBudget() {
    if (parent_ == nullptr) return;
    uint64_t d = disjuncts_.load(std::memory_order_relaxed);
    uint64_t w = work_units_.load(std::memory_order_relaxed);
    if (d != 0) parent_->Release(parent_->disjuncts_, d);
    if (w != 0) parent_->Release(parent_->work_units_, w);
  }

  ResourceBudget(const ResourceBudget&) = delete;
  ResourceBudget& operator=(const ResourceBudget&) = delete;

  /// Charges `n` expanded disjuncts; kResourceExhausted (retryable) on
  /// overrun of this budget or any parent.
  Status ChargeDisjuncts(uint64_t n) {
    return Charge(&ResourceBudget::disjuncts_,
                  &ResourceLimits::max_expanded_disjuncts, n,
                  "expanded disjuncts", "max_expanded_disjuncts");
  }

  /// Charges `n` subset-scan work units.
  Status ChargeSubsetWork(uint64_t n) {
    return Charge(&ResourceBudget::work_units_,
                  &ResourceLimits::max_subset_work_units, n,
                  "subset-scan work units", "max_subset_work_units");
  }

  /// Charges `n` resident catalog bytes; pair with ReleaseResidentBytes
  /// when the catalog entry is dropped.
  Status ChargeResidentBytes(uint64_t n) {
    return Charge(&ResourceBudget::resident_bytes_,
                  &ResourceLimits::max_resident_bytes, n,
                  "resident catalog bytes", "max_resident_bytes");
  }

  void ReleaseResidentBytes(uint64_t n) {
    if (parent_ != nullptr) parent_->ReleaseResidentBytes(n);
    Release(resident_bytes_, n);
  }

  uint64_t disjuncts_charged() const {
    return disjuncts_.load(std::memory_order_relaxed);
  }
  uint64_t work_units_charged() const {
    return work_units_.load(std::memory_order_relaxed);
  }
  uint64_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }
  /// Charges refused by *this* budget's limits (parent refusals count on
  /// the parent).
  uint64_t exhausted_count() const {
    return exhausted_.load(std::memory_order_relaxed);
  }
  const ResourceLimits& limits() const { return limits_; }

 private:
  Status Charge(std::atomic<uint64_t> ResourceBudget::* counter,
                uint64_t ResourceLimits::* limit, uint64_t n,
                const char* what, const char* knob) {
    // Parent first: a parent refusal must not leave a child charge
    // behind, and the child undo below never touches the parent.
    if (parent_ != nullptr) {
      Status up = parent_->Charge(counter, limit, n, what, knob);
      if (!up.ok()) return up;
    }
    const uint64_t cap = limits_.*limit;
    const uint64_t before = (this->*counter).fetch_add(n, std::memory_order_relaxed);
    if (cap != 0 && before + n > cap) {
      (this->*counter).fetch_sub(n, std::memory_order_relaxed);
      if (parent_ != nullptr) parent_->Release(parent_->*counter, n);
      exhausted_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          std::string(what) + " budget of " + std::to_string(cap) +
          " exceeded; retry with a larger ResourceLimits::" + knob);
    }
    return Status::Ok();
  }

  void Release(std::atomic<uint64_t>& counter, uint64_t n) {
    counter.fetch_sub(n, std::memory_order_relaxed);
  }

  const ResourceLimits limits_;
  ResourceBudget* const parent_;
  std::atomic<uint64_t> disjuncts_{0};
  std::atomic<uint64_t> work_units_{0};
  std::atomic<uint64_t> resident_bytes_{0};
  std::atomic<uint64_t> exhausted_{0};
};

}  // namespace oocq

#endif  // OOCQ_SUPPORT_RESOURCE_BUDGET_H_
