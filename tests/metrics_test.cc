// The metrics registry (support/metrics.h): power-of-two histogram
// bucketing, exactness under concurrent increments, scope semantics, and
// the work counters a pipeline run collects. Labeled `concurrency` so a
// TSan build exercises the sharded registry (ctest -L concurrency).

#include "support/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/engine_options.h"
#include "core/optimizer.h"
#include "test_util.h"

namespace oocq {
namespace {

using ::oocq::testing::kVehicleRentalSchema;
using ::oocq::testing::MustParseSchema;

TEST(MetricsTest, HistogramBucketIndexEdges) {
  // Bucket 0 holds the value 0; bucket i holds bit_width-i values,
  // i.e. the range [2^(i-1), 2^i).
  EXPECT_EQ(MetricHistogram::BucketIndex(0), 0u);
  EXPECT_EQ(MetricHistogram::BucketIndex(1), 1u);
  EXPECT_EQ(MetricHistogram::BucketIndex(2), 2u);
  EXPECT_EQ(MetricHistogram::BucketIndex(3), 2u);
  EXPECT_EQ(MetricHistogram::BucketIndex(4), 3u);
  EXPECT_EQ(MetricHistogram::BucketIndex(7), 3u);
  EXPECT_EQ(MetricHistogram::BucketIndex(8), 4u);
  EXPECT_EQ(MetricHistogram::BucketIndex((uint64_t{1} << 63) - 1), 63u);
  EXPECT_EQ(MetricHistogram::BucketIndex(uint64_t{1} << 63), 64u);
  EXPECT_EQ(MetricHistogram::BucketIndex(UINT64_MAX), 64u);

  EXPECT_EQ(MetricHistogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(MetricHistogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(MetricHistogram::BucketLowerBound(2), 2u);
  EXPECT_EQ(MetricHistogram::BucketLowerBound(3), 4u);
  EXPECT_EQ(MetricHistogram::BucketLowerBound(64), uint64_t{1} << 63);

  // Every bucket's lower bound maps back into that bucket.
  for (size_t i = 0; i < MetricHistogram::kNumBuckets; ++i) {
    EXPECT_EQ(MetricHistogram::BucketIndex(MetricHistogram::BucketLowerBound(i)),
              i);
  }
}

TEST(MetricsTest, HistogramRecordAggregates) {
  MetricHistogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.min(), UINT64_MAX);  // empty sentinel
  for (uint64_t value : {0u, 1u, 2u, 3u, 100u}) histogram.Record(value);
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_EQ(histogram.sum(), 106u);
  EXPECT_EQ(histogram.min(), 0u);
  EXPECT_EQ(histogram.max(), 100u);
  EXPECT_EQ(histogram.bucket(0), 1u);  // 0
  EXPECT_EQ(histogram.bucket(1), 1u);  // 1
  EXPECT_EQ(histogram.bucket(2), 2u);  // 2, 3
  EXPECT_EQ(histogram.bucket(7), 1u);  // 100 in [64, 128)
}

TEST(MetricsTest, RegistrySnapshotIsNameSorted) {
  MetricsRegistry registry;
  registry.Add("zeta", 3);
  registry.Add("alpha", 1);
  registry.Add("alpha", 1);
  registry.Record("mid", 9);
  EXPECT_EQ(registry.CounterValue("alpha"), 2u);
  EXPECT_EQ(registry.CounterValue("never_touched"), 0u);

  MetricsRegistry::Snapshot snap = registry.Snap();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[0].value, 2u);
  EXPECT_EQ(snap.counters[1].name, "zeta");
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "mid");
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_EQ(snap.histograms[0].sum, 9u);
}

TEST(MetricsTest, ConcurrentIncrementsAreExact) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  MetricsRegistry registry;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      // Resolve once, then increment lock-free — the hot-path idiom.
      MetricCounter* counter = registry.Counter("shared/counter");
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter->Add(1);
        registry.Record("shared/histogram", i);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(registry.CounterValue("shared/counter"), kThreads * kPerThread);
  MetricHistogram* histogram = registry.Histogram("shared/histogram");
  EXPECT_EQ(histogram->count(), kThreads * kPerThread);
  EXPECT_EQ(histogram->min(), 0u);
  EXPECT_EQ(histogram->max(), kPerThread - 1);
}

TEST(MetricsTest, ScopeFirstWinsAndRoutesFreeFunctions) {
  EXPECT_EQ(ActiveMetrics(), nullptr);
  MetricAdd("dropped", 1);  // no scope: silently discarded
  MetricsRegistry outer_registry;
  {
    MetricsScope outer(&outer_registry);
    EXPECT_TRUE(outer.active());
    EXPECT_EQ(ActiveMetrics(), &outer_registry);
    MetricsRegistry inner_registry;
    {
      MetricsScope inner(&inner_registry);
      EXPECT_FALSE(inner.active());
      MetricAdd("routed", 1);  // still lands in the outer registry
    }
    EXPECT_EQ(ActiveMetrics(), &outer_registry);  // inner dtor didn't tear down
    MetricAdd("routed", 1);
    MetricRecord("sampled", 5);
  }
  EXPECT_EQ(ActiveMetrics(), nullptr);
  EXPECT_EQ(outer_registry.CounterValue("dropped"), 0u);
  EXPECT_EQ(outer_registry.CounterValue("routed"), 2u);
  EXPECT_EQ(outer_registry.Histogram("sampled")->count(), 1u);
}

TEST(MetricsTest, ScopedPhaseTimerCountsCallsAndTime) {
  MetricsRegistry registry;
  {
    MetricsScope scope(&registry);
    { ScopedPhaseTimer timer("phase/test"); }
    { ScopedPhaseTimer timer("phase/test"); }
  }
  EXPECT_EQ(registry.CounterValue("phase/test.calls"), 2u);
  // Wall time is scheduling-dependent; only existence is asserted.
  MetricsRegistry::Snapshot snap = registry.Snap();
  bool saw_ns = false;
  for (const MetricsRegistry::CounterSnapshot& counter : snap.counters) {
    if (counter.name == "phase/test.ns") saw_ns = true;
  }
  EXPECT_TRUE(saw_ns);
}

TEST(MetricsTest, PipelineRunCollectsWorkCounters) {
  Schema schema = MustParseSchema(kVehicleRentalSchema);
  EngineOptions options;
  options.observability.metrics = true;
  QueryOptimizer optimizer(schema, options);
  StatusOr<OptimizeReport> report = optimizer.OptimizeText(
      "{ x | exists y (x in Vehicle & y in Client & x in y.VehRented) }");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->metrics.enabled);
  std::map<std::string, uint64_t> counters(report->metrics.counters.begin(),
                                           report->metrics.counters.end());
  EXPECT_GT(counters.count("containment/calls"), 0u);
  EXPECT_GT(counters.count("expand/raw_disjuncts"), 0u);
  EXPECT_GT(counters.count("phase/expand.calls"), 0u);
}

TEST(MetricsTest, OptimizeReportsPhaseTableWhenEnabled) {
  Schema schema = MustParseSchema(kVehicleRentalSchema);
  const char* query =
      "{ x | exists y (x in Vehicle & y in Discount & x in y.VehRented) }";

  EngineOptions plain;
  QueryOptimizer bare(schema, plain);
  StatusOr<OptimizeReport> without = bare.OptimizeText(query);
  ASSERT_TRUE(without.ok()) << without.status().ToString();
  EXPECT_FALSE(without->metrics.enabled);
  EXPECT_EQ(without->Summary(schema).find("phases:"), std::string::npos);

  EngineOptions observed;
  observed.observability.metrics = true;
  QueryOptimizer instrumented(schema, observed);
  StatusOr<OptimizeReport> with = instrumented.OptimizeText(query);
  ASSERT_TRUE(with.ok()) << with.status().ToString();
  EXPECT_TRUE(with->metrics.enabled);
  ASSERT_FALSE(with->metrics.phases.empty());
  EXPECT_EQ(with->metrics.phases.front().name, "well_form");

  std::string summary = with->Summary(schema);
  EXPECT_NE(summary.find("phases:"), std::string::npos);
  EXPECT_NE(summary.find("expansion (Prop 2.1)"), std::string::npos);
  EXPECT_NE(summary.find("redundancy removal (Thm 4.1/4.2)"),
            std::string::npos);
}

TEST(MetricsTest, HistogramQuantileEmptyAndSinglePoint) {
  MetricsRegistry registry;
  MetricsRegistry::Snapshot empty = registry.Snap();
  MetricsRegistry::HistogramSnapshot none;
  none.buckets.assign(MetricHistogram::kNumBuckets, 0);
  EXPECT_EQ(HistogramQuantile(none, 0.5), 0.0);

  registry.Record("one", 42);
  MetricsRegistry::HistogramSnapshot one = registry.Snap().histograms[0];
  // Every quantile of a single sample is that sample: the interpolation
  // clamps to the observed [min, max].
  for (double q : {0.01, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(HistogramQuantile(one, q), 42.0) << q;
  }
  (void)empty;
}

TEST(MetricsTest, HistogramQuantileOrderedAndClamped) {
  MetricsRegistry registry;
  // 1000 samples 1..1000: p50 must land near 500 within one power-of-two
  // bucket ([512, 1024) spans the true median's bucket boundary).
  for (uint64_t v = 1; v <= 1000; ++v) registry.Record("lat", v);
  MetricsRegistry::HistogramSnapshot lat = registry.Snap().histograms[0];
  const double p50 = HistogramQuantile(lat, 0.5);
  const double p90 = HistogramQuantile(lat, 0.9);
  const double p99 = HistogramQuantile(lat, 0.99);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1024.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, 1000.0);  // clamped to max
  EXPECT_EQ(HistogramQuantile(lat, 0.0), 1.0);
  EXPECT_EQ(HistogramQuantile(lat, 1.0), 1000.0);
}

TEST(MetricsTest, PrometheusStringShape) {
  MetricsRegistry registry;
  registry.Add("server/requests", 7);
  for (uint64_t v : {10u, 20u, 30u, 40u}) {
    registry.Record("server/latency_us", v);
  }
  const std::string text = PrometheusString(registry.Snap());
  // Counter: TYPE line plus one sample, names sanitized and prefixed.
  EXPECT_NE(text.find("# TYPE oocq_server_requests counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("oocq_server_requests 7\n"), std::string::npos);
  // Histogram: summary with the three fixed quantiles plus sum/count and
  // min/max gauges.
  EXPECT_NE(text.find("# TYPE oocq_server_latency_us summary\n"),
            std::string::npos);
  for (const char* q : {"0.5", "0.9", "0.99"}) {
    EXPECT_NE(text.find("oocq_server_latency_us{quantile=\"" +
                        std::string(q) + "\"} "),
              std::string::npos)
        << q;
  }
  EXPECT_NE(text.find("oocq_server_latency_us_sum 100\n"), std::string::npos);
  EXPECT_NE(text.find("oocq_server_latency_us_count 4\n"), std::string::npos);
  EXPECT_NE(text.find("oocq_server_latency_us_min 10\n"), std::string::npos);
  EXPECT_NE(text.find("oocq_server_latency_us_max 40\n"), std::string::npos);
}

TEST(MetricsTest, CachedSiteMacroFollowsScopeChanges) {
  // The per-site cache must re-resolve when the installed scope changes:
  // each registry gets exactly the events recorded during its own scope.
  MetricsRegistry first;
  {
    MetricsScope scope(&first);
    for (int i = 0; i < 3; ++i) OOCQ_METRIC_ADD("site/hits", 1);
    OOCQ_METRIC_RECORD("site/depth", 5);
  }
  MetricsRegistry second;
  {
    MetricsScope scope(&second);
    OOCQ_METRIC_ADD("site/hits", 1);
    OOCQ_METRIC_RECORD("site/depth", 9);
  }
  EXPECT_EQ(first.CounterValue("site/hits"), 3u);
  EXPECT_EQ(second.CounterValue("site/hits"), 1u);
  EXPECT_EQ(first.Snap().histograms[0].max, 5u);
  EXPECT_EQ(second.Snap().histograms[0].max, 9u);
  // No scope: the site is a closed gate, nothing leaks anywhere.
  OOCQ_METRIC_ADD("site/hits", 100);
  EXPECT_EQ(first.CounterValue("site/hits"), 3u);
  EXPECT_EQ(second.CounterValue("site/hits"), 1u);
}

}  // namespace
}  // namespace oocq
