#ifndef OOCQ_CORE_CONTAINMENT_CACHE_H_
#define OOCQ_CORE_CONTAINMENT_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/containment.h"
#include "core/engine_options.h"
#include "query/query.h"
#include "schema/schema.h"
#include "support/status.h"

namespace oocq {

/// Memoizes Contained() decisions keyed by the *canonical forms* of both
/// queries: containment is invariant under bound-variable renaming, so
/// (CanonicalKey(Q1), CanonicalKey(Q2)) identifies the decision. Workload
/// code deciding many overlapping pairs (redundancy removal,
/// view-selection matrices) hits the cache for every renamed duplicate.
///
/// Thread-safe: the table is split into independently mutex-guarded
/// shards, so the engine's parallel fan-outs share one memo table instead
/// of one engine per thread. Each decision is computed exactly once — a
/// thread requesting a key another thread is already computing blocks on
/// that shard until the value lands and then counts a hit. This keeps
/// hit/miss counters and the aggregated work statistics deterministic
/// across thread counts (misses == distinct keys decided).
///
/// The table is capped: when a shard reaches its share of
/// `Options::max_entries`, its oldest finished entry is evicted (FIFO).
/// The cache is tied to one schema.
class ContainmentCache {
 public:
  struct Options {
    /// Limits forwarded to every underlying Contained() call.
    ContainmentOptions containment;
    /// Total entry cap across all shards (0 = unlimited).
    size_t max_entries = 1 << 20;
    /// Number of independently locked shards (values < 1 act as 1).
    uint32_t num_shards = 16;
  };

  explicit ContainmentCache(const Schema* schema)
      : ContainmentCache(schema, Options()) {}
  ContainmentCache(const Schema* schema, Options options);
  /// Back-compat constructor: containment limits only, default sharding.
  ContainmentCache(const Schema* schema, ContainmentOptions containment);

  ContainmentCache(const ContainmentCache&) = delete;
  ContainmentCache& operator=(const ContainmentCache&) = delete;

  /// Contained(q1, q2), answered from the cache when a renaming of the
  /// pair was decided before (or is being decided concurrently — the call
  /// then waits instead of recomputing). The key is
  /// `len(k1) ":" k1 k2` over the disjuncts' CanonicalKey()s, which each
  /// PreparedDisjunct builds once. `stats` (optional) accumulates
  /// the work counters of decisions this call actually computed.
  /// `cancel` (optional) is polled by a decision this call computes; a
  /// tripped token surfaces its retryable status. `budget` (optional) is
  /// charged by a decision this call computes — cached hits are free.
  /// Retryable errors (IsRetryable: deadline, cancellation, budget) are
  /// delivered to current waiters but never memoized, so a retry with a
  /// fresh deadline or budget recomputes; deterministic errors stay
  /// memoized to fail identical requests fast (Export() still never
  /// persists them).
  StatusOr<bool> Contained(const PreparedDisjunct& q1,
                           const PreparedDisjunct& q2,
                           ContainmentStats* stats = nullptr,
                           const CancellationToken* cancel = nullptr,
                           ResourceBudget* budget = nullptr);

  /// Contained() on two queries prepared for this call alone.
  StatusOr<bool> Contained(const ConjunctiveQuery& q1,
                           const ConjunctiveQuery& q2,
                           ContainmentStats* stats = nullptr,
                           const CancellationToken* cancel = nullptr,
                           ResourceBudget* budget = nullptr);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Finished entries currently resident (sums shard sizes under locks).
  size_t size() const;

  /// Finished (key, verdict) pairs, oldest-first within each shard, for
  /// persistence (docs/persistence.md). At most `max_entries` pairs
  /// (0 = all). In-flight and errored entries are never exported.
  std::vector<std::pair<std::string, bool>> Export(size_t max_entries) const;

  /// Seeds one decided verdict under its canonical-pair key, as produced
  /// by Export(). Counts toward the entry cap (evicting as usual) but not
  /// toward hits/misses; an existing entry for the key wins.
  void Preload(const std::string& key, bool value);

 private:
  /// One memo slot. `done` flips under the shard mutex once the decision
  /// (or its error) is available; waiters sleep on the shard's condvar.
  struct Entry {
    bool done = false;
    bool value = false;
    Status error = Status::Ok();
  };

  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<std::string, std::shared_ptr<Entry>> map;
    std::deque<std::string> fifo;  // insertion order, for eviction
  };

  Shard& ShardFor(const std::string& key);
  /// FIFO-evicts oldest finished entries until `shard` is within its cap.
  /// Caller holds shard.mu.
  void EvictIfOver(Shard& shard);

  const Schema* schema_;
  Options options_;
  size_t max_entries_per_shard_;  // 0 = unlimited
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

/// The memo table an engine run (or a server session) shares, built from
/// `options`: its decisions compute under options.containment with
/// `parallel` and `enable_compilation` propagated
/// (WithPropagatedParallelism), and options.cache sizes it. Null when
/// options.cache.enabled is false.
std::unique_ptr<ContainmentCache> MakeContainmentCache(
    const Schema* schema, const EngineOptions& options);

}  // namespace oocq

#endif  // OOCQ_CORE_CONTAINMENT_CACHE_H_
