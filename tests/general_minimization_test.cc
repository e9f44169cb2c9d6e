// Tests for the general-query minimization extension (the §5 open
// problem, implemented best-effort with verified folding).

#include <gtest/gtest.h>

#include "core/containment.h"
#include "core/general_minimization.h"
#include "core/optimizer.h"
#include "query/printer.h"
#include "state/evaluation.h"
#include "state/generator.h"
#include "support/cancellation.h"
#include "test_util.h"

namespace oocq {
namespace {

using ::oocq::testing::MustParseQuery;
using ::oocq::testing::MustParseSchema;

class GeneralMinimizationTest : public ::testing::Test {
 protected:
  Schema schema_ = MustParseSchema(R"(
schema Gen {
  class D { }
  class E under D { }
  class F under D { }
  class C { A: D; S: {D}; }
})");
};

TEST_F(GeneralMinimizationTest, PositiveQueryBehavesLikePositivePipeline) {
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ x | exists u exists v (x in C & u in E & v in E & u in x.S & "
      "v in x.S) }");
  StatusOr<MinimizationReport> report =
      MinimizeConjunctiveQuery(schema_, query);
  OOCQ_ASSERT_OK(report.status());
  ASSERT_EQ(report->minimized.disjuncts.size(), 1u);
  EXPECT_EQ(report->minimized.disjuncts[0].num_vars(), 2u);
  EXPECT_EQ(report->variables_removed, 1u);
}

TEST_F(GeneralMinimizationTest, FoldsRedundantWitnessDespiteInequality) {
  // The inequality x != w does not involve u/v; the duplicate membership
  // witness still folds, and the fold verifies as equivalent.
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ x | exists w exists u exists v (x in C & w in C & u in E & "
      "v in E & u in x.S & v in x.S & x != w) }");
  uint64_t removed = 0;
  StatusOr<ConjunctiveQuery> folded =
      FoldTerminalQueryVerified(schema_, query, {}, &removed);
  OOCQ_ASSERT_OK(folded.status());
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(folded->num_vars(), 3u);
  StatusOr<bool> equivalent = EquivalentQueries(schema_, query, *folded);
  OOCQ_ASSERT_OK(equivalent.status());
  EXPECT_TRUE(*equivalent);
}

TEST_F(GeneralMinimizationTest, InequalityWitnessesDoNotOverFold) {
  // u != v forces two distinct witnesses; u, v must both survive. (The
  // non-contradictory mapping u,v -> u would map 'u != v' to 'u != u',
  // which is contradicted, so no fold is even proposed.)
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ x | exists u exists v (x in C & u in E & v in E & u in x.S & "
      "v in x.S & u != v) }");
  StatusOr<ConjunctiveQuery> folded = FoldTerminalQueryVerified(schema_, query);
  OOCQ_ASSERT_OK(folded.status());
  EXPECT_EQ(folded->num_vars(), 3u);
}

TEST_F(GeneralMinimizationTest, Example32FoldsChainInequality) {
  // Ex 3.2: Q1 (x != y & y != z) is equivalent to Q2 (x != y): the
  // mapping z -> x is non-contradictory and verifies.
  Schema schema = MustParseSchema(testing::kExample32Schema);
  ConjunctiveQuery q1 = MustParseQuery(
      schema,
      "{ x | exists y exists z (x in C & y in C & z in C & x != y & "
      "y != z) }");
  uint64_t removed = 0;
  StatusOr<ConjunctiveQuery> folded =
      FoldTerminalQueryVerified(schema, q1, {}, &removed);
  OOCQ_ASSERT_OK(folded.status());
  EXPECT_EQ(folded->num_vars(), 2u);
  EXPECT_EQ(removed, 1u);
  ConjunctiveQuery q2 = MustParseQuery(
      schema, "{ x | exists y (x in C & y in C & x != y) }");
  StatusOr<bool> equivalent = EquivalentQueries(schema, *folded, q2);
  OOCQ_ASSERT_OK(equivalent.status());
  EXPECT_TRUE(*equivalent);
}

TEST_F(GeneralMinimizationTest, Example32PairwiseDistinctStays) {
  // Ex 3.2's Q3 needs three pairwise-distinct objects: nothing folds.
  Schema schema = MustParseSchema(testing::kExample32Schema);
  ConjunctiveQuery q3 = MustParseQuery(
      schema,
      "{ x | exists y exists z (x in C & y in C & z in C & x != y & "
      "y != z & x != z) }");
  StatusOr<ConjunctiveQuery> folded = FoldTerminalQueryVerified(schema, q3);
  OOCQ_ASSERT_OK(folded.status());
  EXPECT_EQ(folded->num_vars(), 3u);
}

TEST_F(GeneralMinimizationTest, NonMembershipPreserved) {
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ x | exists u exists v (x in C & u in E & v in E & u in x.S & "
      "v notin x.S) }");
  StatusOr<ConjunctiveQuery> folded = FoldTerminalQueryVerified(schema_, query);
  OOCQ_ASSERT_OK(folded.status());
  // Folding v onto u would map 'v notin x.S' onto the contradicted
  // 'u notin x.S'; nothing folds.
  EXPECT_EQ(folded->num_vars(), 3u);
}

TEST_F(GeneralMinimizationTest, ExpansionPlusRedundancyAcrossHierarchy) {
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ x | exists y exists u (x in D & y in D & u in C & x in u.S & "
      "y in u.S & x != y) }");
  StatusOr<MinimizationReport> report =
      MinimizeConjunctiveQuery(schema_, query);
  OOCQ_ASSERT_OK(report.status());
  // x, y each expand over {E, F}: 4 disjuncts, all satisfiable. (E,F)
  // and (F,E) have their inequality normalized away (cross-class).
  EXPECT_EQ(report->raw_disjuncts, 4u);
  EXPECT_EQ(report->satisfiable_disjuncts, 4u);
  EXPECT_GE(report->minimized.disjuncts.size(), 1u);
  // Sound: answers unchanged on random states.
  for (uint64_t seed = 0; seed < 4; ++seed) {
    GeneratorParams params;
    params.seed = seed;
    State state = GenerateRandomState(schema_, params);
    std::vector<Oid> original = *Evaluate(state, query);
    std::vector<Oid> minimized = *EvaluateUnion(state, report->minimized);
    EXPECT_EQ(original, minimized);
  }
}

TEST_F(GeneralMinimizationTest, OptimizerRoutesGeneralQueries) {
  QueryOptimizer optimizer(schema_);
  StatusOr<OptimizeReport> report = optimizer.Optimize(MustParseQuery(
      schema_,
      "{ x | exists w exists u exists v (x in C & w in C & u in E & "
      "v in E & u in x.S & v in x.S & x != w) }"));
  OOCQ_ASSERT_OK(report.status());
  EXPECT_FALSE(report->exact);
  EXPECT_EQ(report->details.variables_removed, 1u);
}

TEST_F(GeneralMinimizationTest, SoundnessOnRandomNegativeQueries) {
  // Cross-validate against evaluation for a handful of hand-picked
  // negative-atom queries.
  const char* queries[] = {
      "{ x | exists y (x in E & y in C & x notin y.S) }",
      "{ x | exists y exists z (x in E & y in E & z in C & x != y & "
      "x in z.S & y in z.S) }",
      "{ x | exists y exists u (x in D & y in C & u in E & x in y.S & "
      "u in y.S & x != u) }",
  };
  for (const char* text : queries) {
    ConjunctiveQuery query = MustParseQuery(schema_, text);
    StatusOr<MinimizationReport> report =
        MinimizeConjunctiveQuery(schema_, query);
    OOCQ_ASSERT_OK(report.status());
    for (uint64_t seed = 0; seed < 3; ++seed) {
      GeneratorParams params;
      params.seed = 100 + seed;
      State state = GenerateRandomState(schema_, params);
      std::vector<Oid> original = *Evaluate(state, query);
      std::vector<Oid> minimized = *EvaluateUnion(state, report->minimized);
      EXPECT_EQ(original, minimized) << text;
    }
  }
}

// --------------------------- atom removal ---------------------------

TEST_F(GeneralMinimizationTest, EqualityChainFullyDissolves) {
  // x = y & y = z & x = z over one class: every equality is removable in
  // turn — with the equalities gone, the bound variables are
  // unconstrained witnesses and the query collapses to { x | x in E }.
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ x | exists y exists z (x in E & y in E & z in E & x = y & y = z & "
      "x = z) }");
  uint64_t removed = 0;
  StatusOr<ConjunctiveQuery> reduced =
      RemoveRedundantAtoms(schema_, query, {}, &removed);
  OOCQ_ASSERT_OK(reduced.status());
  EXPECT_EQ(removed, 3u);
  StatusOr<bool> equivalent = EquivalentQueries(schema_, query, *reduced);
  OOCQ_ASSERT_OK(equivalent.status());
  EXPECT_TRUE(*equivalent);
  ConjunctiveQuery simple = MustParseQuery(schema_, "{ x | x in E }");
  StatusOr<bool> same = EquivalentQueries(schema_, *reduced, simple);
  OOCQ_ASSERT_OK(same.status());
  EXPECT_TRUE(*same);
}

TEST_F(GeneralMinimizationTest, MembershipThroughEquivalenceRemoved) {
  // One membership atom is implied via u = v; then u = v itself
  // dissolves (u becomes an unconstrained witness).
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ x | exists u exists v (x in C & u in E & v in E & u = v & "
      "u in x.S & v in x.S) }");
  uint64_t removed = 0;
  StatusOr<ConjunctiveQuery> reduced =
      RemoveRedundantAtoms(schema_, query, {}, &removed);
  OOCQ_ASSERT_OK(reduced.status());
  EXPECT_EQ(removed, 2u);
  int memberships = 0;
  for (const Atom& atom : reduced->atoms()) {
    if (atom.kind() == AtomKind::kMembership) ++memberships;
  }
  EXPECT_EQ(memberships, 1);
  StatusOr<bool> equivalent = EquivalentQueries(schema_, query, *reduced);
  OOCQ_ASSERT_OK(equivalent.status());
  EXPECT_TRUE(*equivalent);
}

TEST_F(GeneralMinimizationTest, NecessaryAtomsSurvive) {
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ x | exists u exists v (x in C & u in E & v in F & u = x.A & "
      "u in x.S & v in x.S & u != v) }");
  uint64_t removed = 0;
  StatusOr<ConjunctiveQuery> reduced =
      RemoveRedundantAtoms(schema_, query, {}, &removed);
  OOCQ_ASSERT_OK(reduced.status());
  // u != v is cross-class (normalized away, not counted as a removal);
  // every remaining atom is load-bearing.
  for (const Atom& atom : reduced->atoms()) {
    EXPECT_NE(atom.kind(), AtomKind::kInequality);
  }
  EXPECT_EQ(removed, 0u);
  EXPECT_EQ(reduced->atoms().size(), 6u);  // 3 ranges + A-eq + 2 memberships.
}

TEST_F(GeneralMinimizationTest, StrandingRemovalSkipped) {
  // Removing 'u = x.A' would strand nothing here (x.A occurs only in that
  // atom) — but it genuinely changes the query (x.A non-null), so it must
  // survive on semantic grounds too.
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ x | exists u (x in C & u in E & u = x.A) }");
  uint64_t removed = 0;
  StatusOr<ConjunctiveQuery> reduced =
      RemoveRedundantAtoms(schema_, query, {}, &removed);
  OOCQ_ASSERT_OK(reduced.status());
  EXPECT_EQ(removed, 0u);
  EXPECT_EQ(reduced->atoms().size(), 3u);
}

TEST_F(GeneralMinimizationTest, AtomRemovalSoundOnStates) {
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ x | exists u exists v (x in C & u in E & v in E & u = v & "
      "u in x.S & v in x.S & u = x.A & v = x.A) }");
  StatusOr<ConjunctiveQuery> reduced = RemoveRedundantAtoms(schema_, query);
  OOCQ_ASSERT_OK(reduced.status());
  for (uint64_t seed = 0; seed < 4; ++seed) {
    GeneratorParams params;
    params.seed = 50 + seed;
    State state = GenerateRandomState(schema_, params);
    EXPECT_EQ(*Evaluate(state, query), *Evaluate(state, *reduced));
  }
}

// Folding polls the deadline once per candidate variable, as
// MinimizeTerminalPositive does: an expired token aborts both the folding
// step alone and the general pipeline whose only work is folding (D is
// terminal here, so the query expands to a single disjunct and no
// redundancy test runs).
TEST_F(GeneralMinimizationTest, ExpiredDeadlineAbortsFolding) {
  Schema schema = MustParseSchema(R"(
schema Fold {
  class D { }
  class C { S: {D}; }
})");
  CancellationToken expired = CancellationToken::AfterMillis(0);
  MinimizationOptions options;
  options.containment.cancel = &expired;

  ConjunctiveQuery positive = MustParseQuery(
      schema,
      "{ x | exists u exists v (x in C & u in D & v in D & u in x.S & "
      "v in x.S) }");
  StatusOr<ConjunctiveQuery> folded =
      FoldTerminalQueryVerified(schema, positive, options);
  EXPECT_EQ(folded.status().code(), StatusCode::kDeadlineExceeded);

  ConjunctiveQuery general = MustParseQuery(
      schema,
      "{ x | exists y exists w (x in C & y in D & w in D & y in x.S & "
      "w notin x.S) }");
  StatusOr<MinimizationReport> report =
      MinimizeConjunctiveQuery(schema, general, options);
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace oocq
