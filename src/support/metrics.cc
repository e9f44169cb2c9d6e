#include "support/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <limits>

namespace oocq {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::atomic<MetricsRegistry*> g_metrics{nullptr};

#if defined(__x86_64__)
// One-time TSC calibration: sample both clocks across a ~200us spin and
// keep the ratio. Invariant TSC (constant rate, synchronized across
// cores) has been universal on x86-64 for well over a decade; if the
// measured rate comes out nonsensical anyway, usable stays false and
// TelemetryNowNs falls back to the slow clock.
struct TscClock {
  bool usable = false;
  double ns_per_tick = 0;
  uint64_t tsc0 = 0;
  uint64_t ns0 = 0;
};

const TscClock& GetTscClock() {
  static const TscClock calibrated = [] {
    TscClock clock;
    const uint64_t ns_a = NowNs();
    const uint64_t tsc_a = __builtin_ia32_rdtsc();
    uint64_t ns_b = ns_a;
    while (ns_b - ns_a < 200'000) ns_b = NowNs();
    const uint64_t tsc_b = __builtin_ia32_rdtsc();
    if (tsc_b > tsc_a) {
      clock.ns_per_tick =
          static_cast<double>(ns_b - ns_a) / static_cast<double>(tsc_b - tsc_a);
      // Sanity: plausible CPU clocks are ~0.3-10 GHz.
      clock.usable = clock.ns_per_tick > 0.05 && clock.ns_per_tick < 5.0;
      clock.tsc0 = tsc_b;
      clock.ns0 = ns_b;
    }
    return clock;
  }();
  return calibrated;
}
#endif
std::atomic<uint64_t> g_metrics_epoch{0};

void AtomicRelaxedMin(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t cur = target->load(std::memory_order_relaxed);
  while (value < cur &&
         !target->compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void AtomicRelaxedMax(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t cur = target->load(std::memory_order_relaxed);
  while (value > cur &&
         !target->compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

MetricHistogram::MetricHistogram()
    : min_(std::numeric_limits<uint64_t>::max()) {
  for (std::atomic<uint64_t>& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
}

size_t MetricHistogram::BucketIndex(uint64_t value) {
  return static_cast<size_t>(std::bit_width(value));
}

uint64_t MetricHistogram::BucketLowerBound(size_t i) {
  if (i == 0) return 0;
  return uint64_t{1} << (i - 1);
}

void MetricHistogram::Record(uint64_t value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  AtomicRelaxedMin(&min_, value);
  AtomicRelaxedMax(&max_, value);
}

MetricsRegistry::MetricsRegistry(uint32_t num_shards)
    : shards_(num_shards < 1 ? 1 : num_shards) {}

MetricsRegistry::Shard& MetricsRegistry::ShardFor(std::string_view name) {
  return shards_[std::hash<std::string_view>{}(name) % shards_.size()];
}

const MetricsRegistry::Shard& MetricsRegistry::ShardFor(
    std::string_view name) const {
  return shards_[std::hash<std::string_view>{}(name) % shards_.size()];
}

MetricCounter* MetricsRegistry::Counter(std::string_view name) {
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.counters.find(name);
  if (it == shard.counters.end()) {
    it = shard.counters
             .emplace(std::string(name), std::make_unique<MetricCounter>())
             .first;
  }
  return it->second.get();
}

MetricHistogram* MetricsRegistry::Histogram(std::string_view name) {
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.histograms.find(name);
  if (it == shard.histograms.end()) {
    it = shard.histograms
             .emplace(std::string(name), std::make_unique<MetricHistogram>())
             .first;
  }
  return it->second.get();
}

uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  const Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.counters.find(name);
  return it != shard.counters.end() ? it->second->value() : 0;
}

MetricsRegistry::Snapshot MetricsRegistry::Snap() const {
  Snapshot snap;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [name, counter] : shard.counters) {
      snap.counters.push_back({name, counter->value()});
    }
    for (const auto& [name, histogram] : shard.histograms) {
      HistogramSnapshot h;
      h.name = name;
      h.count = histogram->count();
      h.sum = histogram->sum();
      h.min = h.count == 0 ? 0 : histogram->min();
      h.max = histogram->max();
      h.buckets.resize(MetricHistogram::kNumBuckets);
      for (size_t i = 0; i < MetricHistogram::kNumBuckets; ++i) {
        h.buckets[i] = histogram->bucket(i);
      }
      snap.histograms.push_back(std::move(h));
    }
  }
  std::sort(snap.counters.begin(), snap.counters.end(),
            [](const CounterSnapshot& a, const CounterSnapshot& b) {
              return a.name < b.name;
            });
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return snap;
}

double HistogramQuantile(const MetricsRegistry::HistogramSnapshot& histogram,
                         double q) {
  if (histogram.count == 0) return 0.0;
  if (q <= 0.0) return static_cast<double>(histogram.min);
  if (q >= 1.0) return static_cast<double>(histogram.max);
  // The rank of the target sample (1-based), then walk buckets until the
  // cumulative count covers it.
  const double target = q * static_cast<double>(histogram.count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < histogram.buckets.size(); ++i) {
    const uint64_t in_bucket = histogram.buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) < target) {
      cumulative += in_bucket;
      continue;
    }
    // Interpolate inside [lower, upper): the fraction of this bucket's
    // samples below the target rank maps linearly onto the value range.
    const double lower = static_cast<double>(MetricHistogram::BucketLowerBound(i));
    const double upper =
        i + 1 < MetricHistogram::kNumBuckets
            ? static_cast<double>(MetricHistogram::BucketLowerBound(i + 1))
            : lower * 2.0;
    const double fraction =
        (target - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
    double estimate = lower + fraction * (upper - lower);
    estimate = std::max(estimate, static_cast<double>(histogram.min));
    estimate = std::min(estimate, static_cast<double>(histogram.max));
    return estimate;
  }
  return static_cast<double>(histogram.max);
}

namespace {

std::string SanitizeMetricName(std::string_view prefix, const std::string& name) {
  std::string out(prefix);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

void AppendDouble(std::string* out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%g", value);
  *out += buf;
}

}  // namespace

std::string PrometheusString(const MetricsRegistry::Snapshot& snap,
                             std::string_view prefix) {
  std::string out;
  for (const MetricsRegistry::CounterSnapshot& counter : snap.counters) {
    const std::string name = SanitizeMetricName(prefix, counter.name);
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(counter.value) + "\n";
  }
  for (const MetricsRegistry::HistogramSnapshot& histogram : snap.histograms) {
    const std::string name = SanitizeMetricName(prefix, histogram.name);
    out += "# TYPE " + name + " summary\n";
    for (double q : {0.5, 0.9, 0.99}) {
      out += name + "{quantile=\"";
      AppendDouble(&out, q);
      out += "\"} ";
      AppendDouble(&out, HistogramQuantile(histogram, q));
      out += '\n';
    }
    out += name + "_sum " + std::to_string(histogram.sum) + "\n";
    out += name + "_count " + std::to_string(histogram.count) + "\n";
    out += "# TYPE " + name + "_min gauge\n";
    out += name + "_min " + std::to_string(histogram.min) + "\n";
    out += "# TYPE " + name + "_max gauge\n";
    out += name + "_max " + std::to_string(histogram.max) + "\n";
  }
  return out;
}

MetricsScope::MetricsScope(MetricsRegistry* registry) {
  if (registry == nullptr) return;
  MetricsRegistry* expected = nullptr;
  owned_ = g_metrics.compare_exchange_strong(expected, registry,
                                             std::memory_order_release,
                                             std::memory_order_relaxed);
  if (owned_) g_metrics_epoch.fetch_add(1, std::memory_order_acq_rel);
}

MetricsScope::~MetricsScope() {
  if (owned_) {
    g_metrics_epoch.fetch_add(1, std::memory_order_acq_rel);
    g_metrics.store(nullptr, std::memory_order_release);
  }
}

MetricsRegistry* ActiveMetrics() {
  return g_metrics.load(std::memory_order_relaxed);
}

uint64_t MetricsScopeEpoch() {
  return g_metrics_epoch.load(std::memory_order_acquire);
}

uint64_t TelemetryNowNs() {
#if defined(__x86_64__)
  const TscClock& clock = GetTscClock();
  if (clock.usable) {
    const uint64_t ticks = __builtin_ia32_rdtsc() - clock.tsc0;
    return clock.ns0 +
           static_cast<uint64_t>(static_cast<double>(ticks) *
                                 clock.ns_per_tick);
  }
#endif
  return NowNs();
}

ScopedPhaseTimer::ScopedPhaseTimer(const char* name) : name_(name) {
  registry_ = ActiveMetrics();
  if (registry_ != nullptr) {
    start_ns_ = TelemetryNowNs();
    epoch_ = MetricsScopeEpoch();
  }
}

namespace {

/// Thread-local cache of resolved phase counters, keyed on the timer's
/// name pointer (a literal) and the scope epoch. Phase timers sit on
/// engine hot paths; the steady state is a short pointer scan instead of
/// two string concatenations and two shard-mutex lookups per phase.
struct PhaseSite {
  const char* name = nullptr;
  uint64_t epoch = 0;
  MetricCounter* ns_counter = nullptr;
  MetricCounter* calls_counter = nullptr;
};
thread_local std::vector<PhaseSite> t_phase_sites;

PhaseSite* ResolvePhaseSite(MetricsRegistry* registry, const char* name,
                            uint64_t epoch) {
  for (PhaseSite& site : t_phase_sites) {
    if (site.name == name && site.epoch == epoch) return &site;
  }
  char buf[80];
  PhaseSite resolved;
  resolved.name = name;
  resolved.epoch = epoch;
  int n = std::snprintf(buf, sizeof(buf), "%s.ns", name);
  if (n <= 0 || static_cast<size_t>(n) >= sizeof(buf)) return nullptr;
  resolved.ns_counter =
      registry->Counter(std::string_view(buf, static_cast<size_t>(n)));
  n = std::snprintf(buf, sizeof(buf), "%s.calls", name);
  if (n <= 0 || static_cast<size_t>(n) >= sizeof(buf)) return nullptr;
  resolved.calls_counter =
      registry->Counter(std::string_view(buf, static_cast<size_t>(n)));
  for (PhaseSite& site : t_phase_sites) {
    if (site.name == name) {
      site = resolved;
      return &site;
    }
  }
  t_phase_sites.push_back(resolved);
  return &t_phase_sites.back();
}

}  // namespace

ScopedPhaseTimer::~ScopedPhaseTimer() {
  if (registry_ == nullptr) return;
  // Use the registry and epoch captured at entry: if the scope ended
  // mid-phase the registry still outlives its scope (the caller owns
  // both), a new scope's registry must not receive a partial phase, and
  // keying the cache on the entry epoch keeps stale handles from leaking
  // into the next scope.
  PhaseSite* site = ResolvePhaseSite(registry_, name_, epoch_);
  if (site == nullptr) return;
  site->ns_counter->Add(TelemetryNowNs() - start_ns_);
  site->calls_counter->Add(1);
}

}  // namespace oocq
