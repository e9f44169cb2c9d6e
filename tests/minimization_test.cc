// Unit tests for the §4 minimization pipeline: self-mapping variable
// folding (Thm 4.3 / Cor 4.4), redundancy removal, and the full
// MinimizePositiveQuery driver.

#include <gtest/gtest.h>

#include "core/containment.h"
#include "core/minimization.h"
#include "query/printer.h"
#include "support/cancellation.h"
#include "support/metrics.h"
#include "test_util.h"

namespace oocq {
namespace {

using ::oocq::testing::MustParseQuery;
using ::oocq::testing::MustParseSchema;

class MinimizationTest : public ::testing::Test {
 protected:
  Schema schema_ = MustParseSchema(R"(
schema Min {
  class D { }
  class E under D { }
  class F under D { }
  class C { A: D; B: D; S: {D}; }
})");
};

TEST_F(MinimizationTest, AlreadyMinimalQueryUnchanged) {
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ x | exists u (x in C & u in E & u = x.A) }");
  StatusOr<ConjunctiveQuery> minimal =
      MinimizeTerminalPositive(schema_, query);
  OOCQ_ASSERT_OK(minimal.status());
  EXPECT_EQ(minimal->num_vars(), 2u);
  StatusOr<bool> is_minimal = IsMinimalTerminalPositive(schema_, query);
  OOCQ_ASSERT_OK(is_minimal.status());
  EXPECT_TRUE(*is_minimal);
}

TEST_F(MinimizationTest, RedundantWitnessFolds) {
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ x | exists u exists v (x in C & u in E & v in E & u in x.S & "
      "v in x.S) }");
  uint64_t removed = 0;
  StatusOr<ConjunctiveQuery> minimal =
      MinimizeTerminalPositive(schema_, query, {}, &removed);
  OOCQ_ASSERT_OK(minimal.status());
  EXPECT_EQ(minimal->num_vars(), 2u);
  EXPECT_EQ(removed, 1u);
  StatusOr<bool> equivalent = EquivalentQueries(schema_, query, *minimal);
  OOCQ_ASSERT_OK(equivalent.status());
  EXPECT_TRUE(*equivalent);
}

TEST_F(MinimizationTest, ChainFoldsCompletely) {
  // Three interchangeable witnesses fold to one.
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ x | exists u exists v exists w (x in C & u in E & v in E & "
      "w in E & u in x.S & v in x.S & w in x.S) }");
  StatusOr<ConjunctiveQuery> minimal =
      MinimizeTerminalPositive(schema_, query);
  OOCQ_ASSERT_OK(minimal.status());
  EXPECT_EQ(minimal->num_vars(), 2u);
}

TEST_F(MinimizationTest, DistinguishedWitnessesDoNotFold) {
  // u is x.A's witness, v is x.B's witness: both needed.
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ x | exists u exists v (x in C & u in E & v in E & u = x.A & "
      "v = x.B) }");
  StatusOr<ConjunctiveQuery> minimal =
      MinimizeTerminalPositive(schema_, query);
  OOCQ_ASSERT_OK(minimal.status());
  EXPECT_EQ(minimal->num_vars(), 3u);
}

TEST_F(MinimizationTest, DifferentClassesBlockFolding) {
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ x | exists u exists v (x in C & u in E & v in F & u in x.S & "
      "v in x.S) }");
  StatusOr<ConjunctiveQuery> minimal =
      MinimizeTerminalPositive(schema_, query);
  OOCQ_ASSERT_OK(minimal.status());
  EXPECT_EQ(minimal->num_vars(), 3u);
}

TEST_F(MinimizationTest, FreeVariableIsPreserved) {
  // The free variable may move only within its equivalence class.
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ x | exists y (x in E & y in E & x = y) }");
  StatusOr<ConjunctiveQuery> minimal =
      MinimizeTerminalPositive(schema_, query);
  OOCQ_ASSERT_OK(minimal.status());
  EXPECT_EQ(minimal->num_vars(), 1u);
  StatusOr<bool> equivalent = EquivalentQueries(schema_, query, *minimal);
  OOCQ_ASSERT_OK(equivalent.status());
  EXPECT_TRUE(*equivalent);
}

TEST_F(MinimizationTest, UnconstrainedSameClassWitnessFoldsOntoFree) {
  ConjunctiveQuery query =
      MustParseQuery(schema_, "{ x | exists y (x in E & y in E) }");
  StatusOr<ConjunctiveQuery> minimal =
      MinimizeTerminalPositive(schema_, query);
  OOCQ_ASSERT_OK(minimal.status());
  // y folds onto x; the free variable stays in class E.
  EXPECT_EQ(minimal->num_vars(), 1u);
  EXPECT_EQ(minimal->RangeClassOf(minimal->free_var()),
            schema_.FindClass("E").value());
}

TEST_F(MinimizationTest, NonPositiveRejected) {
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ x | exists y (x in E & y in E & x != y) }");
  EXPECT_EQ(MinimizeTerminalPositive(schema_, query).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(MinimizationTest, IsMinimalDetectsFoldable) {
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ x | exists u exists v (x in C & u in E & v in E & u in x.S & "
      "v in x.S) }");
  StatusOr<bool> is_minimal = IsMinimalTerminalPositive(schema_, query);
  OOCQ_ASSERT_OK(is_minimal.status());
  EXPECT_FALSE(*is_minimal);
}

// --------------------------- redundancy removal -----------------------

// Thm 4.3 analyzes the query once per fold, not once per candidate
// variable: with no fold to make, the Thm 2.2 checks of one call do not
// grow with the number of variables.
TEST(MinimizationWorkTest, SelfMappingSearchAnalyzesOncePerFold) {
  Schema schema = MustParseSchema("schema Chain { class N { Next: N; } }");
  uint64_t first = 0;
  for (int k = 1; k <= 6; ++k) {
    // x -> b -> c -> ... along Next: every self-mapping is the identity.
    std::string quantifiers, atoms = "x in N";
    for (int i = 1; i <= k; ++i) {
      const char y = static_cast<char>('a' + i);
      const char prev = i == 1 ? 'x' : static_cast<char>(y - 1);
      quantifiers.append("exists ").append(1, y).append(" ");
      atoms.append(" & ").append(1, y).append(" in N & ").append(1, y);
      atoms.append(" = ").append(1, prev).append(".Next");
    }
    std::string text = "{ x | ";
    text.append(quantifiers).append("(").append(atoms).append(") }");
    ConjunctiveQuery query = MustParseQuery(schema, text);
    MetricsRegistry registry;
    uint64_t removed = 0;
    {
      MetricsScope scope(&registry);
      ASSERT_TRUE(scope.active());
      StatusOr<ConjunctiveQuery> minimal =
          MinimizeTerminalPositive(schema, query, {}, &removed);
      OOCQ_ASSERT_OK(minimal.status());
      StatusOr<bool> is_minimal = IsMinimalTerminalPositive(schema, query);
      OOCQ_ASSERT_OK(is_minimal.status());
      EXPECT_TRUE(*is_minimal);
    }
    EXPECT_EQ(removed, 0u) << text;
    const uint64_t checks = registry.CounterValue("satisfiability/checks");
    if (k == 1) first = checks;
    EXPECT_EQ(checks, first) << k << " variable(s) past the free one";
  }
}

// The fold step starts each kept disjunct from the analysis the
// containment matrix built: when nothing folds, the whole pipeline makes
// no Thm 2.2 check beyond the expansion's and the redundancy removal's.
TEST(MinimizationWorkTest, FoldStepReusesTheMatrixAnalyses) {
  Schema schema = MustParseSchema(::oocq::testing::kVehicleRentalSchema);
  ConjunctiveQuery query = MustParseQuery(
      schema, "{ x | exists y (x in Vehicle & y in Client & x in y.VehRented) }");
  MetricsRegistry screening;
  {
    MetricsScope scope(&screening);
    StatusOr<TerminalExpansion> expansion = ExpandTerminal(schema, query, {});
    OOCQ_ASSERT_OK(expansion.status());
    StatusOr<UnionQuery> kept = RemoveRedundantDisjuncts(schema, *expansion);
    OOCQ_ASSERT_OK(kept.status());
    EXPECT_EQ(kept->disjuncts.size(), 4u);
  }
  MetricsRegistry pipeline;
  {
    MetricsScope scope(&pipeline);
    StatusOr<MinimizationReport> report = MinimizePositiveQuery(schema, query);
    OOCQ_ASSERT_OK(report.status());
    EXPECT_EQ(report->nonredundant_disjuncts, 4u);
    EXPECT_EQ(report->variables_removed, 0u);
  }
  EXPECT_EQ(pipeline.CounterValue("satisfiability/checks"),
            screening.CounterValue("satisfiability/checks"));
}

TEST_F(MinimizationTest, RemoveRedundantDropsContainedDisjunct) {
  StatusOr<UnionQuery> parsed = ParseUnionQuery(
      schema_,
      "{ x | exists u (x in C & u in E & u in x.S) } union "
      "{ x | exists u exists v (x in C & u in E & v in F & u in x.S & "
      "v in x.S) }");
  OOCQ_ASSERT_OK(parsed.status());
  StatusOr<UnionQuery> nonredundant =
      RemoveRedundantDisjuncts(schema_, *parsed);
  OOCQ_ASSERT_OK(nonredundant.status());
  // The second disjunct is contained in the first.
  ASSERT_EQ(nonredundant->disjuncts.size(), 1u);
  EXPECT_EQ(nonredundant->disjuncts[0].num_vars(), 2u);
}

TEST_F(MinimizationTest, RemoveRedundantKeepsOnePerEquivalenceGroup) {
  StatusOr<UnionQuery> parsed = ParseUnionQuery(
      schema_,
      "{ x | x in E } union { y | y in E } union { x | x in F }");
  OOCQ_ASSERT_OK(parsed.status());
  StatusOr<UnionQuery> nonredundant =
      RemoveRedundantDisjuncts(schema_, *parsed);
  OOCQ_ASSERT_OK(nonredundant.status());
  EXPECT_EQ(nonredundant->disjuncts.size(), 2u);
}

TEST_F(MinimizationTest, RemoveRedundantDropsUnsatisfiable) {
  StatusOr<UnionQuery> parsed = ParseUnionQuery(
      schema_,
      "{ x | x in E } union "
      "{ x | exists y (x in E & y in F & x = y) }");
  OOCQ_ASSERT_OK(parsed.status());
  StatusOr<UnionQuery> nonredundant =
      RemoveRedundantDisjuncts(schema_, *parsed);
  OOCQ_ASSERT_OK(nonredundant.status());
  EXPECT_EQ(nonredundant->disjuncts.size(), 1u);
}

TEST_F(MinimizationTest, RemoveRedundantKeepsIncomparable) {
  StatusOr<UnionQuery> parsed = ParseUnionQuery(
      schema_, "{ x | x in E } union { x | x in F }");
  OOCQ_ASSERT_OK(parsed.status());
  StatusOr<UnionQuery> nonredundant =
      RemoveRedundantDisjuncts(schema_, *parsed);
  OOCQ_ASSERT_OK(nonredundant.status());
  EXPECT_EQ(nonredundant->disjuncts.size(), 2u);
}

// --------------------------- full pipeline ---------------------------

TEST_F(MinimizationTest, PipelineIsIdempotent) {
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ x | exists u exists v (x in C & u in D & v in D & u in x.S & "
      "v in x.S) }");
  StatusOr<MinimizationReport> first = MinimizePositiveQuery(schema_, query);
  OOCQ_ASSERT_OK(first.status());
  // Re-minimize each output disjunct: nothing changes.
  for (const ConjunctiveQuery& disjunct : first->minimized.disjuncts) {
    StatusOr<MinimizationReport> again =
        MinimizePositiveQuery(schema_, disjunct);
    OOCQ_ASSERT_OK(again.status());
    ASSERT_EQ(again->minimized.disjuncts.size(), 1u);
    StatusOr<bool> equivalent = EquivalentQueries(
        schema_, disjunct, again->minimized.disjuncts[0]);
    OOCQ_ASSERT_OK(equivalent.status());
    EXPECT_TRUE(*equivalent);
    EXPECT_EQ(again->minimized.disjuncts[0].num_vars(), disjunct.num_vars());
  }
}

TEST_F(MinimizationTest, PipelineResultEquivalentToInputExpansion) {
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ x | exists u exists v (x in C & u in D & v in E & u in x.S & "
      "v in x.S) }");
  StatusOr<MinimizationReport> report = MinimizePositiveQuery(schema_, query);
  OOCQ_ASSERT_OK(report.status());
  StatusOr<UnionQuery> expansion = ExpandToTerminalQueries(schema_, query);
  OOCQ_ASSERT_OK(expansion.status());
  StatusOr<bool> equivalent =
      UnionEquivalent(schema_, report->minimized, *expansion);
  OOCQ_ASSERT_OK(equivalent.status());
  EXPECT_TRUE(*equivalent);
}

TEST_F(MinimizationTest, PipelineReportsCounts) {
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ x | exists u exists v (x in C & u in D & v in D & u in x.S & "
      "v in x.S) }");
  StatusOr<MinimizationReport> report = MinimizePositiveQuery(schema_, query);
  OOCQ_ASSERT_OK(report.status());
  // u, v each expand over {E, F}: 4 raw disjuncts, all satisfiable.
  EXPECT_EQ(report->raw_disjuncts, 4u);
  EXPECT_EQ(report->satisfiable_disjuncts, 4u);
  // The mixed disjuncts (E,F)/(F,E) are contained in both pure ones
  // (folding the odd witness away), so only (E,E) and (F,F) survive, and
  // each then folds its duplicate witness.
  EXPECT_EQ(report->nonredundant_disjuncts, 2u);
  EXPECT_EQ(report->variables_removed, 2u);
  ASSERT_EQ(report->minimized.disjuncts.size(), 2u);
  for (const ConjunctiveQuery& disjunct : report->minimized.disjuncts) {
    EXPECT_EQ(disjunct.num_vars(), 2u);
  }
}

// A tripped token aborts the pipeline with its retryable status, and
// leaves nothing behind: the same input then minimizes as it always does.
TEST_F(MinimizationTest, CancelledPipelineAbortsRetryably) {
  StatusOr<UnionQuery> parsed = ParseUnionQuery(
      schema_,
      "{ x | exists u (x in C & u in E & u in x.S) } union "
      "{ x | exists u exists v (x in C & u in E & v in F & u in x.S & "
      "v in x.S) } union { x | x in E }");
  OOCQ_ASSERT_OK(parsed.status());
  StatusOr<MinimizationReport> fresh = MinimizePositiveUnion(schema_, *parsed);
  OOCQ_ASSERT_OK(fresh.status());

  CancellationToken cancelled;
  cancelled.Cancel();
  MinimizationOptions options;
  options.containment.cancel = &cancelled;
  StatusOr<MinimizationReport> aborted =
      MinimizePositiveUnion(schema_, *parsed, options);
  ASSERT_FALSE(aborted.ok());
  EXPECT_TRUE(IsRetryable(aborted.status().code()))
      << aborted.status().ToString();

  StatusOr<MinimizationReport> rerun = MinimizePositiveUnion(schema_, *parsed);
  OOCQ_ASSERT_OK(rerun.status());
  EXPECT_EQ(UnionQueryToString(schema_, rerun->minimized),
            UnionQueryToString(schema_, fresh->minimized));
}

TEST_F(MinimizationTest, PipelineRejectsNonPositive) {
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ x | exists y (x in E & y in E & x != y) }");
  EXPECT_EQ(MinimizePositiveQuery(schema_, query).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace oocq
