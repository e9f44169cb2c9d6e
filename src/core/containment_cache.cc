#include "core/containment_cache.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>

#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/status_macros.h"

namespace oocq {

ContainmentCache::ContainmentCache(const Schema* schema, Options options)
    : schema_(schema), options_(std::move(options)) {
  const uint32_t num_shards = std::max(1u, options_.num_shards);
  shards_.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  max_entries_per_shard_ =
      options_.max_entries == 0
          ? 0
          : std::max<size_t>(1, options_.max_entries / num_shards);
}

std::unique_ptr<ContainmentCache> MakeContainmentCache(
    const Schema* schema, const EngineOptions& options) {
  if (!options.cache.enabled) return nullptr;
  ContainmentCache::Options cache_options;
  cache_options.containment = WithPropagatedParallelism(options).containment;
  cache_options.max_entries = options.cache.max_entries;
  cache_options.num_shards = options.cache.num_shards;
  return std::make_unique<ContainmentCache>(schema, cache_options);
}

ContainmentCache::Shard& ContainmentCache::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

void ContainmentCache::EvictIfOver(Shard& shard) {
  if (max_entries_per_shard_ == 0 ||
      shard.map.size() <= max_entries_per_shard_) {
    return;
  }
  // Evict the oldest finished entry; skip stale fifo keys (erased on
  // error) and in-flight ones.
  for (size_t scanned = shard.fifo.size(); scanned > 0; --scanned) {
    std::string victim = std::move(shard.fifo.front());
    shard.fifo.pop_front();
    auto vit = shard.map.find(victim);
    if (vit == shard.map.end()) continue;  // stale
    if (!vit->second->done) {
      shard.fifo.push_back(std::move(victim));  // in flight: keep
      continue;
    }
    shard.map.erase(vit);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    OOCQ_METRIC_ADD("cache/evictions", 1);
    break;
  }
}

std::vector<std::pair<std::string, bool>> ContainmentCache::Export(
    size_t max_entries) const {
  std::vector<std::pair<std::string, bool>> exported;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const std::string& key : shard->fifo) {
      if (max_entries != 0 && exported.size() >= max_entries) return exported;
      auto it = shard->map.find(key);
      if (it == shard->map.end() || !it->second->done ||
          !it->second->error.ok()) {
        continue;
      }
      exported.emplace_back(key, it->second->value);
    }
  }
  return exported;
}

void ContainmentCache::Preload(const std::string& key, bool value) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.map.count(key) != 0) return;
  auto entry = std::make_shared<Entry>();
  entry->done = true;
  entry->value = value;
  shard.map.emplace(key, std::move(entry));
  shard.fifo.push_back(key);
  EvictIfOver(shard);
}

size_t ContainmentCache::size() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->map.size();
  }
  return total;
}

StatusOr<bool> ContainmentCache::Contained(const PreparedDisjunct& q1,
                                           const PreparedDisjunct& q2,
                                           ContainmentStats* stats,
                                           const CancellationToken* cancel,
                                           ResourceBudget* budget) {
  OOCQ_RETURN_IF_ERROR(Failpoints::Check("cache/lookup"));
  // Length-prefixing Q1's key makes the concatenation injective even if a
  // string constant inside a canonical key contains arbitrary bytes.
  const std::string& k1 = q1.key();
  const std::string& k2 = q2.key();
  std::string key = std::to_string(k1.size());
  key.reserve(key.size() + 1 + k1.size() + k2.size());
  key += ':';
  key += k1;
  key += k2;
  Shard& shard = ShardFor(key);

  std::shared_ptr<Entry> entry;
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      // This thread owns the computation; concurrent requesters of the
      // same key wait below instead of duplicating the work.
      entry = std::make_shared<Entry>();
      shard.map.emplace(key, entry);
      shard.fifo.push_back(key);
      misses_.fetch_add(1, std::memory_order_relaxed);
      if (stats != nullptr) ++stats->cache_misses;
      OOCQ_METRIC_ADD("cache/miss", 1);
      EvictIfOver(shard);
    } else {
      entry = it->second;
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (stats != nullptr) ++stats->cache_hits;
      OOCQ_METRIC_ADD("cache/hit", 1);
      if (!entry->done) {
        // Another thread owns this key's computation; block until its
        // value lands (compute-once, docs/parallelism.md). A waiter with
        // a token re-polls it between waits so a tripped deadline never
        // leaves it hung behind a slower (or unbounded) owner.
        OOCQ_METRIC_ADD("cache/wait", 1);
        if (cancel == nullptr) {
          shard.cv.wait(lock, [&entry] { return entry->done; });
        } else {
          while (!shard.cv.wait_for(lock, std::chrono::milliseconds(5),
                                    [&entry] { return entry->done; })) {
            Status live = cancel->Check();
            if (!live.ok()) return live;
          }
        }
      }
      if (!entry->error.ok()) return entry->error;
      return entry->value;
    }
  }

  // This thread owns the entry: decide outside the lock. The caller's
  // token governs only the decision it computes; cached hits are instant
  // and never observe it.
  ContainmentOptions compute_options = options_.containment;
  compute_options.cancel = cancel;
  if (budget != nullptr) compute_options.budget = budget;
  StatusOr<bool> decided =
      ::oocq::Contained(*schema_, q1, q2, compute_options, stats);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (decided.ok()) {
      entry->value = *decided;
    } else {
      entry->error = decided.status();
      if (IsRetryable(decided.status().code())) {
        // Transient outcomes (deadline, cancellation, budget) are
        // delivered to current waiters but not memoized: a retry —
        // possibly with raised limits or under less load — recomputes.
        shard.map.erase(key);
      }
      // Deterministic errors (bad precondition, structural cap) stay
      // memoized so identical requests fail fast instead of redoing the
      // doomed enumeration. Export() skips errored entries, so they never
      // reach the durable catalog.
    }
    entry->done = true;
  }
  shard.cv.notify_all();
  return decided;
}

StatusOr<bool> ContainmentCache::Contained(const ConjunctiveQuery& q1,
                                           const ConjunctiveQuery& q2,
                                           ContainmentStats* stats,
                                           const CancellationToken* cancel,
                                           ResourceBudget* budget) {
  return Contained(PreparedDisjunct(*schema_, q1),
                   PreparedDisjunct(*schema_, q2), stats, cancel, budget);
}

}  // namespace oocq
