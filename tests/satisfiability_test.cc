// Unit tests for the Thm 2.2 satisfiability procedure: every
// unsatisfiability condition (a)-(g) of DESIGN.md §5.3, plus the
// normalization of satisfiable terminal queries.

#include <gtest/gtest.h>

#include <optional>
#include <random>

#include "core/expansion.h"
#include "core/satisfiability.h"
#include "query/printer.h"
#include "query/well_formed.h"
#include "random_query.h"
#include "test_util.h"

namespace oocq {
namespace {

using ::oocq::testing::GenerateRandomQuery;
using ::oocq::testing::MustParseQuery;
using ::oocq::testing::MustParseSchema;
using ::oocq::testing::RandomQueryParams;

class SatisfiabilityTest : public ::testing::Test {
 protected:
  Schema schema_ = MustParseSchema(R"(
schema Sat {
  class D { }
  class E under D { }
  class F under D { }
  class Other { }
  class C { A: D; S: {D}; OnlyE: E; SE: {E}; }
})");

  bool Satisfiable(const std::string& text) {
    ConjunctiveQuery query = MustParseQuery(schema_, text);
    return CheckSatisfiable(schema_, query).satisfiable;
  }
};

TEST_F(SatisfiabilityTest, TrivialQuerySatisfiable) {
  EXPECT_TRUE(Satisfiable("{ x | x in C }"));
}

TEST_F(SatisfiabilityTest, ConditionA_CrossClassEquality) {
  EXPECT_FALSE(Satisfiable(
      "{ x | exists y (x in E & y in F & x = y) }"));
}

TEST_F(SatisfiabilityTest, ConditionA_TransitiveCrossClassEquality) {
  EXPECT_FALSE(Satisfiable(
      "{ x | exists y exists z (x in E & y in E & z in F & x = y & "
      "y = z) }"));
}

TEST_F(SatisfiabilityTest, SameClassEqualityFine) {
  EXPECT_TRUE(Satisfiable("{ x | exists y (x in E & y in E & x = y) }"));
}

TEST_F(SatisfiabilityTest, ConditionB_MissingAttribute) {
  // Example 4.1's Q1/Q4 pattern: B is not an attribute of T1.
  EXPECT_FALSE(Satisfiable(
      "{ x | exists u (x in D & u in E & u = x.A) }"));
}

TEST_F(SatisfiabilityTest, ConditionB_SetAttributeUsedAsObject) {
  EXPECT_FALSE(Satisfiable(
      "{ x | exists u (x in C & u in E & u = x.S) }"));
}

TEST_F(SatisfiabilityTest, ConditionB_ObjectTermOutsideType) {
  // x.OnlyE has type E; equating it to an F variable is unsatisfiable.
  EXPECT_FALSE(Satisfiable(
      "{ x | exists u (x in C & u in F & u = x.OnlyE) }"));
}

TEST_F(SatisfiabilityTest, ConditionB_ObjectTermInsideTypeOk) {
  EXPECT_TRUE(Satisfiable(
      "{ x | exists u (x in C & u in E & u = x.OnlyE) }"));
  EXPECT_TRUE(Satisfiable(
      "{ x | exists u (x in C & u in F & u = x.A) }"));
}

TEST_F(SatisfiabilityTest, ConditionC_ObjectAttributeUsedAsSet) {
  EXPECT_FALSE(Satisfiable(
      "{ x | exists u (x in C & u in E & u in x.A) }"));
}

TEST_F(SatisfiabilityTest, ConditionC_MissingSetAttribute) {
  EXPECT_FALSE(Satisfiable(
      "{ x | exists u (x in D & u in E & u in x.S) }"));
}

TEST_F(SatisfiabilityTest, ConditionD_MembershipTypeIncompatible) {
  // Example 4.1's Q3/Q6 pattern: x.SE is a set of E; an F element cannot
  // be a member.
  EXPECT_FALSE(Satisfiable(
      "{ x | exists u (x in C & u in F & u in x.SE) }"));
  EXPECT_TRUE(Satisfiable(
      "{ x | exists u (x in C & u in E & u in x.SE) }"));
}

TEST_F(SatisfiabilityTest, ConditionD_OtherClassIncompatible) {
  EXPECT_FALSE(Satisfiable(
      "{ x | exists u (x in C & u in Other & u in x.S) }"));
}

TEST_F(SatisfiabilityTest, ConditionE_ContradictoryInequality) {
  EXPECT_FALSE(Satisfiable(
      "{ x | exists y (x in E & y in E & x = y & x != y) }"));
}

TEST_F(SatisfiabilityTest, ConditionE_CongruenceInequality) {
  // x = y forces x.A = y.A; with u = x.A and v = y.A, u != v explodes.
  EXPECT_FALSE(Satisfiable(
      "{ x | exists y exists u exists v (x in C & y in C & u in E & "
      "v in E & x = y & u = x.A & v = y.A & u != v) }"));
}

TEST_F(SatisfiabilityTest, InequalityChainSatisfiable) {
  // Example 3.2's Q1: only two distinct objects are needed.
  EXPECT_TRUE(Satisfiable(
      "{ x | exists y exists z (x in E & y in E & z in E & x != y & "
      "y != z) }"));
}

TEST_F(SatisfiabilityTest, ConditionF_MembershipConflict) {
  EXPECT_FALSE(Satisfiable(
      "{ x | exists u (x in C & u in E & u in x.S & u notin x.S) }"));
}

TEST_F(SatisfiabilityTest, ConditionF_ConflictThroughEquality) {
  EXPECT_FALSE(Satisfiable(
      "{ x | exists u exists v (x in C & u in E & v in E & u = v & "
      "u in x.S & v notin x.S) }"));
}

TEST_F(SatisfiabilityTest, NonMembershipAloneFine) {
  EXPECT_TRUE(Satisfiable(
      "{ x | exists u (x in C & u in E & u notin x.S) }"));
}

TEST_F(SatisfiabilityTest, ConditionG_NonRangeConflict) {
  EXPECT_FALSE(Satisfiable("{ x | x in E & x notin D }"));
  EXPECT_FALSE(Satisfiable("{ x | x in E & x notin E }"));
}

TEST_F(SatisfiabilityTest, ConditionG_NonRangeCompatible) {
  EXPECT_TRUE(Satisfiable("{ x | x in E & x notin F|Other }"));
}

TEST_F(SatisfiabilityTest, UnsatReasonIsInformative) {
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ x | exists u (x in D & u in E & u = x.A) }");
  SatisfiabilityResult result = CheckSatisfiable(schema_, query);
  ASSERT_FALSE(result.satisfiable);
  EXPECT_NE(result.reason.find("'A'"), std::string::npos);
}

// --------------------------- Normalization ---------------------------

TEST_F(SatisfiabilityTest, NormalizeRemovesNonRangeAtoms) {
  ConjunctiveQuery query =
      MustParseQuery(schema_, "{ x | x in E & x notin F|Other }");
  StatusOr<ConjunctiveQuery> normalized =
      NormalizeTerminalQuery(schema_, query);
  OOCQ_ASSERT_OK(normalized.status());
  EXPECT_EQ(normalized->atoms().size(), 1u);
  EXPECT_EQ(normalized->atoms()[0].kind(), AtomKind::kRange);
}

TEST_F(SatisfiabilityTest, NormalizeRemovesCrossClassInequality) {
  ConjunctiveQuery query =
      MustParseQuery(schema_, "{ x | exists y (x in E & y in F & x != y) }");
  StatusOr<ConjunctiveQuery> normalized =
      NormalizeTerminalQuery(schema_, query);
  OOCQ_ASSERT_OK(normalized.status());
  EXPECT_EQ(normalized->atoms().size(), 2u);  // Only the range atoms.
  EXPECT_TRUE(normalized->IsPositive());
}

TEST_F(SatisfiabilityTest, NormalizeKeepsSameClassInequality) {
  ConjunctiveQuery query =
      MustParseQuery(schema_, "{ x | exists y (x in E & y in E & x != y) }");
  StatusOr<ConjunctiveQuery> normalized =
      NormalizeTerminalQuery(schema_, query);
  OOCQ_ASSERT_OK(normalized.status());
  EXPECT_FALSE(normalized->IsPositive());
}

TEST_F(SatisfiabilityTest, NormalizeKeepsTypeTrivialNonMembership) {
  // Even though an Other object can never be in x.S, the atom forces x.S
  // to be non-null under 3-valued logic (Ex 3.3) and must survive.
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ x | exists u (x in C & u in Other & u notin x.S) }");
  StatusOr<ConjunctiveQuery> normalized =
      NormalizeTerminalQuery(schema_, query);
  OOCQ_ASSERT_OK(normalized.status());
  bool has_non_membership = false;
  for (const Atom& atom : normalized->atoms()) {
    if (atom.kind() == AtomKind::kNonMembership) has_non_membership = true;
  }
  EXPECT_TRUE(has_non_membership);
}

TEST_F(SatisfiabilityTest, NormalizeRemovesCrossClassAttributeInequality) {
  // u = x.OnlyE puts x.OnlyE in class E; an inequality against an F
  // variable is implied true.
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ x | exists u exists w (x in C & u in E & w in F & u = x.OnlyE & "
      "w != x.OnlyE) }");
  StatusOr<ConjunctiveQuery> normalized =
      NormalizeTerminalQuery(schema_, query);
  OOCQ_ASSERT_OK(normalized.status());
  EXPECT_TRUE(normalized->IsPositive());
}

TEST_F(SatisfiabilityTest, NormalizeRejectsUnsatisfiable) {
  ConjunctiveQuery query =
      MustParseQuery(schema_, "{ x | exists y (x in E & y in F & x = y) }");
  EXPECT_EQ(NormalizeTerminalQuery(schema_, query).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(SatisfiabilityTest, GeneralSatisfiabilityThroughExpansion) {
  // Non-terminal query: x in D is satisfiable via E or F.
  ConjunctiveQuery query = MustParseQuery(schema_, "{ x | x in D }");
  StatusOr<bool> sat = CheckSatisfiableGeneral(schema_, query);
  OOCQ_ASSERT_OK(sat.status());
  EXPECT_TRUE(*sat);
}

TEST_F(SatisfiabilityTest, GeneralSatisfiabilityFindsTheOneGoodDisjunct) {
  // x in D & u = x.OnlyE: only... D has no attributes; use C-ranged x.
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ x | exists u (x in C & u in D & u = x.OnlyE) }");
  size_t witness = 999;
  StatusOr<bool> sat = CheckSatisfiableGeneral(schema_, query, &witness);
  OOCQ_ASSERT_OK(sat.status());
  EXPECT_TRUE(*sat);
  // u expands over {E, F}; only u in E is satisfiable (OnlyE: E).
  EXPECT_LT(witness, 2u);
}

TEST_F(SatisfiabilityTest, GeneralSatisfiabilityAllDisjunctsDead) {
  // Every expansion of u dies: u = x.OnlyE with u forced into F.
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ x | exists u (x in C & u in F & u = x.OnlyE) }");
  StatusOr<bool> sat = CheckSatisfiableGeneral(schema_, query);
  OOCQ_ASSERT_OK(sat.status());
  EXPECT_FALSE(*sat);
}

TEST_F(SatisfiabilityTest, GeneralSatisfiabilityRejectsIllFormed) {
  ConjunctiveQuery query;
  query.AddVariable("x");  // No range atom.
  EXPECT_EQ(CheckSatisfiableGeneral(schema_, query).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SatisfiabilityTest, NormalizeDeduplicatesAtoms) {
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ x | exists y (x in E & y in E & x = y & y = x) }");
  StatusOr<ConjunctiveQuery> normalized =
      NormalizeTerminalQuery(schema_, query);
  OOCQ_ASSERT_OK(normalized.status());
  EXPECT_EQ(normalized->atoms().size(), 3u);
}

// The graph-taking overloads against the graph-building ones on random
// queries: the graph CheckWellFormed hands out serves Thm 2.2 and the
// normalization of the query and of every Prop 2.1 combination of it (the
// expansion prune relies on this), with the same status, verdict, reason
// and normalized atoms.
TEST(SharedGraphTest, GraphTakingOverloadsMatchGraphBuildingOnes) {
  Schema schema = MustParseSchema(R"(
schema Shared {
  class D { }
  class E under D { }
  class F under D { }
  class C { A: D; S: {D}; SE: {E}; N: Int; Tag: String; }
  class K { R: C; M: {C}; }
})");
  std::mt19937_64 rng(20261018);
  RandomQueryParams params;
  params.max_vars = 4;
  params.max_extra_atoms = 8;
  params.allow_negative = true;
  params.terminal_only = false;
  params.use_builtins = true;
  params.use_constants = true;
  ExpansionOptions raw;
  raw.prune_unsatisfiable = false;
  uint64_t well_formed = 0, combinations = 0, satisfiable = 0;
  for (int round = 0; round < 1500; ++round) {
    ConjunctiveQuery query = GenerateRandomQuery(schema, rng, params);
    std::optional<EqualityGraph> graph;
    Status shared = CheckWellFormed(schema, query, &graph);
    Status built = CheckWellFormed(schema, query);
    EXPECT_EQ(shared.code(), built.code());
    EXPECT_EQ(shared.message(), built.message());
    if (!shared.ok()) continue;
    ASSERT_TRUE(graph.has_value());
    ++well_formed;
    StatusOr<UnionQuery> expanded = ExpandToTerminalQueries(schema, query, raw);
    ASSERT_TRUE(expanded.ok()) << expanded.status().ToString();
    for (const ConjunctiveQuery& disjunct : expanded->disjuncts) {
      ++combinations;
      SatisfiabilityResult a = CheckSatisfiable(schema, disjunct, *graph);
      SatisfiabilityResult b = CheckSatisfiable(schema, disjunct);
      EXPECT_EQ(a.satisfiable, b.satisfiable)
          << QueryToString(schema, disjunct);
      EXPECT_EQ(a.reason, b.reason);
      if (b.satisfiable) ++satisfiable;
      StatusOr<ConjunctiveQuery> na =
          NormalizeTerminalQuery(schema, disjunct, *graph);
      StatusOr<ConjunctiveQuery> nb = NormalizeTerminalQuery(schema, disjunct);
      EXPECT_EQ(na.status().code(), nb.status().code());
      EXPECT_EQ(na.status().message(), nb.status().message());
      if (na.ok() && nb.ok()) {
        EXPECT_EQ(na->atoms(), nb->atoms()) << QueryToString(schema, disjunct);
      }
    }
  }
  EXPECT_GT(well_formed, 300u);
  EXPECT_GT(combinations, well_formed);
  EXPECT_GT(satisfiable, 100u);
  EXPECT_GT(combinations - satisfiable, 100u);
}

}  // namespace
}  // namespace oocq
