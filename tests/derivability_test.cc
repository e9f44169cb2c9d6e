// Unit tests for the §3.1 derivability and non-contradiction relations.

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "core/derivability.h"
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

class DerivabilityTest : public ::testing::Test {
 protected:
  Schema schema_ = MustParseSchema(R"(
schema Der {
  class D { }
  class E under D { }
  class F under D { }
  class C { A: D; B: D; S: {D}; SE: {E}; }
})");

  QueryAnalysis Analyze(const std::string& text) {
    ConjunctiveQuery query = MustParseQuery(schema_, text);
    StatusOr<QueryAnalysis> analysis = QueryAnalysis::Create(schema_, query);
    EXPECT_TRUE(analysis.ok()) << analysis.status().ToString();
    return *std::move(analysis);
  }
};

TEST_F(DerivabilityTest, PreconditionsChecked) {
  // Non-terminal query.
  ConjunctiveQuery non_terminal = MustParseQuery(schema_, "{ x | x in D }");
  EXPECT_EQ(QueryAnalysis::Create(schema_, non_terminal).status().code(),
            StatusCode::kFailedPrecondition);
  // Unsatisfiable query.
  ConjunctiveQuery unsat =
      MustParseQuery(schema_, "{ x | exists y (x in E & y in F & x = y) }");
  EXPECT_EQ(QueryAnalysis::Create(schema_, unsat).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(DerivabilityTest, DerivesRangeIsSyntactic) {
  QueryAnalysis q = Analyze("{ x | x in E }");
  EXPECT_TRUE(q.DerivesRange(0, schema_.FindClass("E").value()));
  // Membership in a superclass is true semantically but NOT derivable:
  // the atom 'x in D' is not in Q (the paper's definition is syntactic).
  EXPECT_FALSE(q.DerivesRange(0, schema_.FindClass("D").value()));
}

TEST_F(DerivabilityTest, DerivesEqualityReflexive) {
  QueryAnalysis q = Analyze("{ x | x in C }");
  EXPECT_TRUE(q.DerivesEquality(Term::Var(0), Term::Var(0)));
}

TEST_F(DerivabilityTest, DerivesEqualityThroughChain) {
  QueryAnalysis q = Analyze(
      "{ x | exists y exists z (x in E & y in E & z in E & x = y & "
      "y = z) }");
  EXPECT_TRUE(q.DerivesEquality(Term::Var(0), Term::Var(2)));
}

TEST_F(DerivabilityTest, DistinctVariablesNotDerivablyEqual) {
  QueryAnalysis q = Analyze("{ x | exists y (x in E & y in E) }");
  EXPECT_FALSE(q.DerivesEquality(Term::Var(0), Term::Var(1)));
}

TEST_F(DerivabilityTest, DerivesEqualityWithAttributeTerm) {
  QueryAnalysis q = Analyze(
      "{ x | exists u (x in C & u in E & u = x.A) }");
  EXPECT_TRUE(q.DerivesEquality(Term::Var(1), Term::Attr(0, "A")));
  EXPECT_TRUE(q.DerivesEquality(Term::Attr(0, "A"), Term::Var(1)));
  EXPECT_FALSE(q.DerivesEquality(Term::Var(1), Term::Attr(0, "B")));
}

TEST_F(DerivabilityTest, DerivesEqualityThroughEquatedOwners) {
  // Example 3.1's key step: y in [x] and y.A an object term makes
  // z = x.A derivable even though only z = y.A is written.
  QueryAnalysis q = Analyze(
      "{ x | exists y exists z (x in C & y in C & z in E & z = y.A & "
      "x = y) }");
  EXPECT_TRUE(q.DerivesEquality(Term::Var(2), Term::Attr(0, "A")));
}

TEST_F(DerivabilityTest, AbsentAttributeTermNotDerivable) {
  QueryAnalysis q = Analyze("{ x | exists u (x in C & u in E) }");
  EXPECT_FALSE(q.DerivesEquality(Term::Var(1), Term::Attr(0, "A")));
}

TEST_F(DerivabilityTest, DerivesMembership) {
  QueryAnalysis q = Analyze(
      "{ x | exists u (x in C & u in E & u in x.S) }");
  EXPECT_TRUE(q.DerivesMembership(1, 0, "S"));
  EXPECT_FALSE(q.DerivesMembership(0, 0, "S"));
  EXPECT_FALSE(q.DerivesMembership(1, 0, "A"));
}

TEST_F(DerivabilityTest, DerivesMembershipThroughEquivalence) {
  QueryAnalysis q = Analyze(
      "{ x | exists u exists v (x in C & u in E & v in E & u = v & "
      "u in x.S) }");
  EXPECT_TRUE(q.DerivesMembership(2, 0, "S"));
}

TEST_F(DerivabilityTest, NotContradictsInequalityBasic) {
  QueryAnalysis q = Analyze(
      "{ x | exists y (x in E & y in E) }");
  EXPECT_TRUE(q.NotContradictsInequality(Term::Var(0), Term::Var(1)));
  // x != x is contradicted.
  EXPECT_FALSE(q.NotContradictsInequality(Term::Var(0), Term::Var(0)));
}

TEST_F(DerivabilityTest, EquatedVariablesContradictInequality) {
  QueryAnalysis q = Analyze(
      "{ x | exists y (x in E & y in E & x = y) }");
  EXPECT_FALSE(q.NotContradictsInequality(Term::Var(0), Term::Var(1)));
}

TEST_F(DerivabilityTest, UnmentionedAttributeContradictsInequality) {
  // x.A is not an object term of Q: its value could be null, so the
  // inequality cannot be guaranteed true.
  QueryAnalysis q = Analyze("{ x | exists y (x in C & y in E) }");
  EXPECT_FALSE(q.NotContradictsInequality(Term::Attr(0, "A"), Term::Var(1)));
}

TEST_F(DerivabilityTest, MentionedAttributeSupportsInequality) {
  QueryAnalysis q = Analyze(
      "{ x | exists u exists y (x in C & u in E & y in E & u = x.A) }");
  EXPECT_TRUE(q.NotContradictsInequality(Term::Attr(0, "A"), Term::Var(2)));
}

TEST_F(DerivabilityTest, NotContradictsNonMembershipRequiresSetTerm) {
  // Example 3.3: without y.A mentioned in Q, x notin y.A is contradicted
  // (some state gives y.A = null or x inside).
  QueryAnalysis without = Analyze("{ x | exists y (x in E & y in C) }");
  EXPECT_FALSE(without.NotContradictsNonMembership(0, 1, "S"));

  QueryAnalysis with_set = Analyze(
      "{ x | exists y exists u (x in E & y in C & u in E & u in y.S) }");
  EXPECT_TRUE(with_set.NotContradictsNonMembership(0, 1, "S"));
}

TEST_F(DerivabilityTest, DerivableMembershipContradictsNonMembership) {
  QueryAnalysis q = Analyze(
      "{ x | exists y (x in E & y in C & x in y.S) }");
  EXPECT_FALSE(q.NotContradictsNonMembership(0, 1, "S"));
}

TEST_F(DerivabilityTest, HasSetTermThroughEquivalence) {
  QueryAnalysis q = Analyze(
      "{ x | exists y exists z exists u (x in E & y in C & z in C & "
      "u in E & y = z & u in z.S) }");
  EXPECT_TRUE(q.HasSetTerm(1, "S"));  // y ~ z and z.S is a set term.
}

TEST_F(DerivabilityTest, NotContradictsMembershipChecksElementType) {
  QueryAnalysis q = Analyze(
      "{ x | exists y exists u (x in F & y in C & u in E & u in y.SE) }");
  EXPECT_FALSE(q.NotContradictsMembership(0, 1, "SE"));  // (d): F is no E
  EXPECT_TRUE(q.NotContradictsMembership(2, 1, "SE"));
}

TEST_F(DerivabilityTest, NotContradictsMembershipChecksNonMemberships) {
  // (f) through equivalence: x notin z.S with z = y denies x in y.S and
  // x in z.S, and u = x is denied with x; w is not.
  QueryAnalysis q = Analyze(
      "{ x | exists y exists z exists u exists w (x in E & y in C & "
      "z in C & u in E & w in E & y = z & u = x & x notin z.S) }");
  EXPECT_FALSE(q.NotContradictsMembership(0, 1, "S"));
  EXPECT_FALSE(q.NotContradictsMembership(0, 2, "S"));
  EXPECT_FALSE(q.NotContradictsMembership(3, 1, "S"));
  EXPECT_TRUE(q.NotContradictsMembership(4, 1, "S"));
}

TEST_F(DerivabilityTest, NotContradictsMembershipRequiresSetTerm) {
  QueryAnalysis q = Analyze("{ x | exists y (x in E & y in C) }");
  EXPECT_FALSE(q.NotContradictsMembership(0, 1, "S"));
}

// The incremental check against its oracle: on random terminal,
// satisfiable queries, adding x in y.attr — for every variable x and
// every set term y.attr of Q — keeps Thm 2.2 satisfied exactly when
// NotContradictsMembership says so. Both refusing rules, (d) and (f),
// must actually fire.
TEST(IncrementalMembershipCheckTest, AgreesWithFullSatisfiabilityCheck) {
  Schema schema = MustParseSchema(R"(
schema Incremental {
  class D { }
  class E under D { }
  class F under D { }
  class C { A: D; S: {D}; SE: {E}; N: Int; Tag: String; }
  class K { R: C; M: {C}; }
})");
  std::mt19937_64 rng(20261018);
  RandomQueryParams params;
  params.max_vars = 5;
  params.max_extra_atoms = 8;
  params.allow_negative = true;
  params.use_builtins = true;
  params.use_constants = true;
  uint64_t analyzed = 0, allowed = 0, type_refusals = 0, denied = 0;
  for (int round = 0; round < 10000; ++round) {
    ConjunctiveQuery base = GenerateRandomQuery(schema, rng, params);
    StatusOr<QueryAnalysis> analysis = QueryAnalysis::Create(schema, base);
    if (!analysis.ok()) continue;  // ill-formed or unsatisfiable
    ++analyzed;
    for (VarId y = 0; y < base.num_vars(); ++y) {
      for (const AttributeDef& attr :
           schema.class_info(base.RangeClassOf(y)).all_attributes) {
        if (!analysis->HasSetTerm(y, attr.name)) continue;
        for (VarId x = 0; x < base.num_vars(); ++x) {
          ConjunctiveQuery extended = base;
          extended.AddAtom(Atom::Membership(x, y, attr.name));
          ASSERT_TRUE(CheckWellFormed(schema, extended).ok());
          SatisfiabilityResult full = CheckSatisfiable(schema, extended);
          EXPECT_EQ(analysis->NotContradictsMembership(x, y, attr.name),
                    full.satisfiable)
              << QueryToString(schema, extended) << ": " << full.reason;
          if (full.satisfiable) {
            ++allowed;
          } else if (full.reason.rfind("non-membership", 0) == 0) {
            ++denied;
          } else {
            ++type_refusals;
          }
        }
      }
    }
  }
  EXPECT_GT(analyzed, 2000u);
  EXPECT_GT(allowed, 100u);
  EXPECT_GT(type_refusals, 500u);
  EXPECT_GT(denied, 30u);
}

}  // namespace
}  // namespace oocq
