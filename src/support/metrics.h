#ifndef OOCQ_SUPPORT_METRICS_H_
#define OOCQ_SUPPORT_METRICS_H_

/// Named counters and fixed-bucket histograms for the engine, aggregated
/// across independently locked shards like the containment cache.
///
/// Usage:
///
///   MetricsRegistry registry;
///   {
///     MetricsScope scope(&registry);         // installs the run-wide sink
///     MetricAdd("containment/calls", 1);     // from anywhere in the engine
///     MetricRecord("pool/queue_depth", d);   // histogram sample
///   }
///   MetricsRegistry::Snapshot snap = registry.Snap();
///
/// The shard mutex is taken only to find-or-create a metric by name;
/// increments land on per-metric atomics, so hot counters resolved once
/// via MetricCounterPtr() are lock-free afterwards. When no scope is
/// installed, MetricAdd/MetricRecord are a single relaxed atomic load.
///
/// Determinism: work counters inherit the pipeline's contract
/// (docs/parallelism.md) — byte-identical across thread counts on the
/// positive pipeline. Timing metrics (phase/*.ns, pool/*_ns) and queue
/// depths are scheduling-dependent by nature and excluded from any
/// determinism comparison.
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace oocq {

/// A single named counter. Stable address for its registry's lifetime.
class MetricCounter {
 public:
  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A power-of-two-bucket histogram: bucket 0 holds value 0, bucket i
/// (1 <= i <= 64) holds values with bit_width i, i.e. [2^(i-1), 2^i).
/// Tracks count/sum/min/max alongside the buckets; all updates are
/// relaxed atomics, so concurrent Record() calls never lock.
class MetricHistogram {
 public:
  static constexpr size_t kNumBuckets = 65;

  MetricHistogram();
  void Record(uint64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Min/max over recorded values; min() is UINT64_MAX when count() == 0.
  uint64_t min() const { return min_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const { return buckets_[i].load(std::memory_order_relaxed); }

  /// The bucket index `value` falls into (0 for 0, else bit_width).
  static size_t BucketIndex(uint64_t value);
  /// Inclusive lower bound of bucket i (0, 1, 2, 4, 8, …).
  static uint64_t BucketLowerBound(size_t i);

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_;
  std::atomic<uint64_t> max_{0};
  std::atomic<uint64_t> buckets_[kNumBuckets];
};

/// Shard-aggregated registry of counters and histograms, addressed by
/// name. Thread-safe; metrics are created on first use.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(uint32_t num_shards = 8);

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create; the returned pointer stays valid for the registry's
  /// lifetime, so hot paths resolve once and increment lock-free.
  MetricCounter* Counter(std::string_view name);
  MetricHistogram* Histogram(std::string_view name);

  void Add(std::string_view name, uint64_t delta) { Counter(name)->Add(delta); }
  void Record(std::string_view name, uint64_t value) { Histogram(name)->Record(value); }

  /// Current value of a counter; 0 when it was never touched.
  uint64_t CounterValue(std::string_view name) const;

  struct CounterSnapshot {
    std::string name;
    uint64_t value = 0;
  };
  struct HistogramSnapshot {
    std::string name;
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;  // 0 when count == 0
    uint64_t max = 0;
    std::vector<uint64_t> buckets;  // kNumBuckets entries
  };
  struct Snapshot {
    std::vector<CounterSnapshot> counters;      // name-sorted
    std::vector<HistogramSnapshot> histograms;  // name-sorted
  };

  /// Name-sorted copy of everything, aggregated across shards —
  /// deterministic output order regardless of creation interleaving.
  Snapshot Snap() const;

 private:
  /// Heterogeneous lookup so the hot Add/Record path resolves a
  /// string_view name without materializing a std::string per call.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::unique_ptr<MetricCounter>, NameHash,
                       std::equal_to<>>
        counters;
    std::unordered_map<std::string, std::unique_ptr<MetricHistogram>,
                       NameHash, std::equal_to<>>
        histograms;
  };

  Shard& ShardFor(std::string_view name);
  const Shard& ShardFor(std::string_view name) const;

  std::vector<Shard> shards_;
};

/// Estimated quantile (0 < q < 1) of a power-of-two-bucket histogram:
/// walks the cumulative counts to the winning bucket, then interpolates
/// linearly inside it, clamped to the observed [min, max]. Exact for the
/// bucket boundaries, within one bucket's width otherwise — plenty for
/// p50/p90/p99 on latency distributions. Returns 0 when count == 0.
double HistogramQuantile(const MetricsRegistry::HistogramSnapshot& histogram,
                         double q);

/// Prometheus text exposition of a snapshot (docs/observability.md#stats).
/// Metric names are sanitized ('/', '.', '-' → '_') and prefixed; each
/// counter becomes one `# TYPE ... counter` sample, each histogram a
/// summary with quantile="0.5|0.9|0.99" samples plus _sum/_count/_min/_max.
std::string PrometheusString(const MetricsRegistry::Snapshot& snap,
                             std::string_view prefix = "oocq_");

/// RAII installer of the process-wide metrics sink (first wins; nested or
/// null scopes are inert, mirroring TraceSession). Instrumentation sites
/// call MetricAdd/MetricRecord, which route to the installed registry.
class MetricsScope {
 public:
  explicit MetricsScope(MetricsRegistry* registry);
  ~MetricsScope();

  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

  bool active() const { return owned_; }

 private:
  bool owned_ = false;
};

/// The installed registry, or nullptr — one relaxed atomic load.
MetricsRegistry* ActiveMetrics();

/// Monotonic count of MetricsScope installs + uninstalls; odd while a
/// scope is installed, and distinct across every installed period. Cached
/// per-site handles key on it to detect scope changes.
uint64_t MetricsScopeEpoch();

/// Nanosecond timestamp for telemetry intervals. On x86-64 this is a
/// calibrated TSC read (~8ns vs ~50ns for clock_gettime) — the first
/// call spins ~200us once per process to measure the tick rate, so the
/// conversion error stays under ~0.05%. Elsewhere it falls back to
/// steady_clock. Only telemetry uses it: the small calibration error is
/// invisible in a histogram but would be wrong for deadlines.
uint64_t TelemetryNowNs();

/// A call site's cached counter handle: resolves the name against the
/// installed registry once per scope epoch, then returns the same pointer
/// with two relaxed-ish atomic loads — no shard mutex, no hashing. Safe
/// under the scope quiescence contract (scopes install/uninstall only
/// while no instrumented code is running; the owner drains first), which
/// guarantees the epoch cannot change mid-call. Declared `static` at the
/// site, typically via OOCQ_METRIC_ADD.
class MetricCounterSite {
 public:
  MetricCounter* Get(MetricsRegistry* registry, std::string_view name) {
    const uint64_t epoch = MetricsScopeEpoch();
    if (epoch_.load(std::memory_order_acquire) == epoch) {
      return counter_.load(std::memory_order_relaxed);
    }
    MetricCounter* counter = registry->Counter(name);
    // Publish value before epoch: a reader that sees the new epoch
    // (acquire) must also see the new counter.
    counter_.store(counter, std::memory_order_relaxed);
    epoch_.store(epoch, std::memory_order_release);
    return counter;
  }

 private:
  std::atomic<uint64_t> epoch_{0};  // 0 = never resolved (epochs are odd)
  std::atomic<MetricCounter*> counter_{nullptr};
};

/// Histogram analog of MetricCounterSite.
class MetricHistogramSite {
 public:
  MetricHistogram* Get(MetricsRegistry* registry, std::string_view name) {
    const uint64_t epoch = MetricsScopeEpoch();
    if (epoch_.load(std::memory_order_acquire) == epoch) {
      return histogram_.load(std::memory_order_relaxed);
    }
    MetricHistogram* histogram = registry->Histogram(name);
    histogram_.store(histogram, std::memory_order_relaxed);
    epoch_.store(epoch, std::memory_order_release);
    return histogram;
  }

 private:
  std::atomic<uint64_t> epoch_{0};
  std::atomic<MetricHistogram*> histogram_{nullptr};
};

/// MetricAdd/MetricRecord with a per-site handle cache — for sites on
/// request hot paths, where the name lookup (shard mutex + hash) would
/// otherwise dominate the sample itself. `name` must be stable for the
/// program's lifetime (a literal).
#define OOCQ_METRIC_ADD(name, delta)                                     \
  do {                                                                   \
    if (::oocq::MetricsRegistry* oocq_metric_reg =                       \
            ::oocq::ActiveMetrics()) {                                   \
      static ::oocq::MetricCounterSite oocq_metric_site;                 \
      oocq_metric_site.Get(oocq_metric_reg, (name))->Add(delta);         \
    }                                                                    \
  } while (0)

#define OOCQ_METRIC_RECORD(name, value)                                  \
  do {                                                                   \
    if (::oocq::MetricsRegistry* oocq_metric_reg =                       \
            ::oocq::ActiveMetrics()) {                                   \
      static ::oocq::MetricHistogramSite oocq_metric_site;               \
      oocq_metric_site.Get(oocq_metric_reg, (name))->Record(value);      \
    }                                                                    \
  } while (0)

inline void MetricAdd(std::string_view name, uint64_t delta) {
  if (MetricsRegistry* metrics = ActiveMetrics()) metrics->Add(name, delta);
}

inline void MetricRecord(std::string_view name, uint64_t value) {
  if (MetricsRegistry* metrics = ActiveMetrics()) metrics->Record(name, value);
}

/// Resolves `name` against the installed registry once; nullptr when no
/// scope is active. For loops too hot to pay the name lookup per event.
inline MetricCounter* MetricCounterPtr(std::string_view name) {
  MetricsRegistry* metrics = ActiveMetrics();
  return metrics != nullptr ? metrics->Counter(name) : nullptr;
}

/// RAII wall-time accumulator: adds the scope's elapsed nanoseconds to
/// counter `<name>.ns` and bumps `<name>.calls` by one. Inert when no
/// registry is installed at construction.
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(const char* name);
  ~ScopedPhaseTimer();

  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  MetricsRegistry* registry_ = nullptr;
  const char* name_;
  uint64_t start_ns_ = 0;
  uint64_t epoch_ = 0;  // scope epoch at entry, pairs registry_ in the cache
};

}  // namespace oocq

#endif  // OOCQ_SUPPORT_METRICS_H_
