// The parallel engine's core guarantee: running the pipeline with 1, 2 or
// 8 threads produces byte-identical results — same minimized unions, same
// report counters, same containment verdicts, same cache traffic — on
// seeded random queries. Labeled `concurrency` so a TSan build can run it
// via `ctest -L concurrency`.

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/containment.h"
#include "core/satisfiability.h"
#include "core/engine_options.h"
#include "core/minimization.h"
#include "core/optimizer.h"
#include "query/printer.h"
#include "query/well_formed.h"
#include "random_query.h"
#include "test_util.h"

namespace oocq {
namespace {

using ::oocq::testing::GenerateRandomQuery;
using ::oocq::testing::MustParseSchema;
using ::oocq::testing::PerturbSetAtoms;
using ::oocq::testing::RandomQueryParams;

constexpr uint32_t kThreadCounts[] = {1, 2, 8};

const char* const kSchema = R"(
schema ParDet {
  class D { }
  class E under D { }
  class F under D { }
  class C { A: D; S: {D}; }
  class C1 under C { }
  class C2 under C { B: E; }
})";

EngineOptions WithThreads(uint32_t threads) {
  EngineOptions options;
  options.parallel.num_threads = threads;
  return options;
}

class ParallelDeterminism : public ::testing::TestWithParam<uint64_t> {
 protected:
  Schema schema_ = MustParseSchema(kSchema);

  std::optional<ConjunctiveQuery> Draw(std::mt19937_64& rng,
                                       bool allow_negative,
                                       bool terminal_only = false) {
    RandomQueryParams params;
    params.terminal_only = terminal_only;
    params.max_vars = 4;
    params.allow_negative = allow_negative;
    ConjunctiveQuery query = GenerateRandomQuery(schema_, rng, params);
    if (!CheckWellFormed(schema_, query).ok()) return std::nullopt;
    return query;
  }
};

TEST_P(ParallelDeterminism, MinimizationReportsIdenticalAcrossThreadCounts) {
  std::mt19937_64 rng(GetParam());
  for (int round = 0; round < 6; ++round) {
    std::optional<ConjunctiveQuery> query = Draw(rng, /*allow_negative=*/false);
    if (!query.has_value() || !query->IsPositive()) continue;

    StatusOr<MinimizationReport> baseline =
        MinimizePositiveQuery(schema_, *query, WithThreads(1));
    for (uint32_t threads : kThreadCounts) {
      StatusOr<MinimizationReport> report =
          MinimizePositiveQuery(schema_, *query, WithThreads(threads));
      ASSERT_EQ(report.ok(), baseline.ok()) << threads << " thread(s)";
      if (!report.ok()) {
        EXPECT_EQ(report.status().ToString(), baseline.status().ToString());
        continue;
      }
      EXPECT_EQ(UnionQueryToString(schema_, report->minimized),
                UnionQueryToString(schema_, baseline->minimized))
          << threads << " thread(s) on "
          << QueryToString(schema_, *query);
      EXPECT_EQ(report->raw_disjuncts, baseline->raw_disjuncts);
      EXPECT_EQ(report->satisfiable_disjuncts,
                baseline->satisfiable_disjuncts);
      EXPECT_EQ(report->nonredundant_disjuncts,
                baseline->nonredundant_disjuncts);
      EXPECT_EQ(report->variables_removed, baseline->variables_removed);
      // Positive-pipeline work counters are deterministic: the matrix has
      // no early exit and each fan-out task counts its own work.
      EXPECT_EQ(report->containment.augmentations,
                baseline->containment.augmentations);
      EXPECT_EQ(report->containment.membership_subsets,
                baseline->containment.membership_subsets);
      EXPECT_EQ(report->containment.mapping_searches,
                baseline->containment.mapping_searches);
      EXPECT_EQ(report->containment.mapping_steps,
                baseline->containment.mapping_steps);
    }
  }
}

TEST_P(ParallelDeterminism, OptimizerOutputIdenticalAcrossThreadCounts) {
  // Full facade, cache enabled: minimized union, exactness, costs and
  // cache hit/miss counters must not depend on the thread count (the
  // compute-once cache makes misses == distinct decisions).
  std::mt19937_64 rng(GetParam() + 5000);
  for (int round = 0; round < 5; ++round) {
    std::optional<ConjunctiveQuery> query = Draw(rng, /*allow_negative=*/false);
    if (!query.has_value()) continue;

    QueryOptimizer serial(schema_, WithThreads(1));
    StatusOr<OptimizeReport> baseline = serial.Optimize(*query);
    for (uint32_t threads : kThreadCounts) {
      QueryOptimizer optimizer(schema_, WithThreads(threads));
      StatusOr<OptimizeReport> report = optimizer.Optimize(*query);
      ASSERT_EQ(report.ok(), baseline.ok()) << threads << " thread(s)";
      if (!report.ok()) continue;
      EXPECT_EQ(report->Summary(schema_), baseline->Summary(schema_))
          << threads << " thread(s) on " << QueryToString(schema_, *query);
      EXPECT_EQ(report->cache_hits, baseline->cache_hits);
      EXPECT_EQ(report->cache_misses, baseline->cache_misses);
    }
  }
}

TEST_P(ParallelDeterminism, ContainmentVerdictsIdenticalAcrossThreadCounts) {
  // General queries (negative atoms exercise Thm 3.1's 2^|T| subset
  // scan). Verdicts and errors must match the serial run; the pipeline's
  // work counters on early-exit paths may differ and are not compared.
  std::mt19937_64 rng(GetParam() + 10000);
  for (int round = 0; round < 6; ++round) {
    std::optional<ConjunctiveQuery> q1 = Draw(rng, /*allow_negative=*/true);
    std::optional<ConjunctiveQuery> q2 = Draw(rng, /*allow_negative=*/true);
    if (!q1.has_value() || !q2.has_value()) continue;

    QueryOptimizer serial(schema_, WithThreads(1));
    StatusOr<bool> baseline = serial.IsContained(*q1, *q2);
    for (uint32_t threads : kThreadCounts) {
      QueryOptimizer optimizer(schema_, WithThreads(threads));
      StatusOr<bool> verdict = optimizer.IsContained(*q1, *q2);
      ASSERT_EQ(verdict.ok(), baseline.ok()) << threads << " thread(s)";
      if (verdict.ok()) {
        EXPECT_EQ(*verdict, *baseline)
            << threads << " thread(s) on "
            << QueryToString(schema_, *q1) << " vs "
            << QueryToString(schema_, *q2);
      } else {
        EXPECT_EQ(verdict.status().ToString(), baseline.status().ToString());
      }
    }
  }

  // Contained() itself runs serially (the fan-out is UnionContained()'s
  // alone), so the interpreted per-mask scan does the same work at every
  // thread count: its ContainmentStats equal the serial run's exactly.
  std::mt19937_64 terminal_rng(GetParam() + 12000);
  int scans = 0;  // pairs whose scan reached past mask 0
  for (int round = 0; round < 2000; ++round) {
    std::optional<ConjunctiveQuery> q1 =
        Draw(terminal_rng, /*allow_negative=*/true, /*terminal_only=*/true);
    if (!q1.has_value() || !CheckSatisfiable(schema_, *q1).satisfiable) {
      continue;
    }
    // Q2 reuses Q1's set terms, so Q1's membership pool decides it.
    std::optional<ConjunctiveQuery> q2 =
        PerturbSetAtoms(schema_, *q1, terminal_rng);
    if (!q2.has_value() || !CheckWellFormed(schema_, *q2).ok() ||
        !CheckSatisfiable(schema_, *q2).satisfiable) {
      continue;
    }

    ContainmentOptions options;
    options.enable_compilation = false;
    ContainmentStats baseline_stats;
    StatusOr<bool> baseline =
        Contained(schema_, *q1, *q2, options, &baseline_stats);
    if (baseline_stats.membership_subsets +
            baseline_stats.membership_subsets_skipped > 1) {
      ++scans;
    }
    for (uint32_t threads : kThreadCounts) {
      options.parallel.num_threads = threads;
      ContainmentStats stats;
      StatusOr<bool> verdict = Contained(schema_, *q1, *q2, options, &stats);
      ASSERT_EQ(verdict.ok(), baseline.ok()) << threads << " thread(s)";
      if (verdict.ok()) {
        EXPECT_EQ(*verdict, *baseline);
      }
      const std::string where = std::to_string(threads) + " thread(s) on " +
                                QueryToString(schema_, *q1) + " vs " +
                                QueryToString(schema_, *q2);
      EXPECT_EQ(stats.augmentations, baseline_stats.augmentations) << where;
      EXPECT_EQ(stats.membership_subsets, baseline_stats.membership_subsets)
          << where;
      EXPECT_EQ(stats.membership_subsets_skipped,
                baseline_stats.membership_subsets_skipped)
          << where;
      EXPECT_EQ(stats.mapping_searches, baseline_stats.mapping_searches)
          << where;
      EXPECT_EQ(stats.mapping_steps, baseline_stats.mapping_steps) << where;
    }
  }
  EXPECT_GE(scans, 10);
}

TEST_P(ParallelDeterminism, UnionMinimizationIdenticalAcrossThreadCounts) {
  std::mt19937_64 rng(GetParam() + 15000);
  for (int round = 0; round < 4; ++round) {
    UnionQuery input;
    for (int d = 0; d < 3; ++d) {
      std::optional<ConjunctiveQuery> q = Draw(rng, /*allow_negative=*/false);
      if (q.has_value() && q->IsPositive()) {
        input.disjuncts.push_back(*std::move(q));
      }
    }
    if (input.disjuncts.empty()) continue;

    StatusOr<MinimizationReport> baseline =
        MinimizePositiveUnion(schema_, input, WithThreads(1));
    for (uint32_t threads : kThreadCounts) {
      StatusOr<MinimizationReport> report =
          MinimizePositiveUnion(schema_, input, WithThreads(threads));
      ASSERT_EQ(report.ok(), baseline.ok()) << threads << " thread(s)";
      if (!report.ok()) continue;
      EXPECT_EQ(UnionQueryToString(schema_, report->minimized),
                UnionQueryToString(schema_, baseline->minimized))
          << threads << " thread(s)";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminism,
                         ::testing::Range(uint64_t{0}, uint64_t{8}));

}  // namespace
}  // namespace oocq
