// Tests for the constants extension (`x.Name = "Alice"`): parsing,
// satisfiability, containment, minimization, evaluation (compiled and
// tree walker), witnesses, and canonicalization.

#include <gtest/gtest.h>

#include "core/canonical.h"
#include "core/containment.h"
#include "core/minimization.h"
#include "core/optimizer.h"
#include "core/satisfiability.h"
#include "query/printer.h"
#include "query/well_formed.h"
#include "state/evaluation.h"
#include "state/witness.h"
#include "test_util.h"

namespace oocq {
namespace {

using ::oocq::testing::MustParseQuery;
using ::oocq::testing::MustParseSchema;

class ConstantsTest : public ::testing::Test {
 protected:
  ConstantsTest() : state_(&schema_) {
    person_ = schema_.FindClass("Person").value();
  }

  Schema schema_ = MustParseSchema(R"(
schema Const {
  class Person { Name: String; Age: Int; Friends: {Person}; }
})");
  State state_;
  ClassId person_;
};

// --------------------------- parsing ---------------------------

TEST_F(ConstantsTest, DirectBindingOnVariable) {
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ x | exists n (x in Person & n in String & n = x.Name & "
               "n = \"Alice\") }");
  bool found = false;
  for (const Atom& atom : query.atoms()) {
    if (atom.kind() == AtomKind::kConstant) {
      found = true;
      EXPECT_EQ(atom.var(), query.FindVariable("n"));
      EXPECT_EQ(std::get<std::string>(atom.constant()), "Alice");
      EXPECT_TRUE(atom.is_positive());
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(query.num_vars(), 2u);  // No fresh variable needed.
}

TEST_F(ConstantsTest, AttributeComparisonDesugars) {
  // x.Name = "Alice" introduces a fresh String variable.
  ConjunctiveQuery query =
      MustParseQuery(schema_, "{ x | x in Person & x.Name = \"Alice\" }");
  EXPECT_EQ(query.num_vars(), 2u);
  OOCQ_EXPECT_OK(CheckWellFormed(schema_, query).code() == StatusCode::kOk
                     ? Status::Ok()
                     : CheckWellFormed(schema_, query));
}

TEST_F(ConstantsTest, LiteralOnLeftAndInequality) {
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ x | x in Person & 42 = x.Age & x.Name != \"Bob\" }");
  int constants = 0, inequalities = 0;
  for (const Atom& atom : query.atoms()) {
    if (atom.kind() == AtomKind::kConstant) ++constants;
    if (atom.kind() == AtomKind::kInequality) ++inequalities;
  }
  EXPECT_EQ(constants, 2);
  EXPECT_EQ(inequalities, 1);
}

TEST_F(ConstantsTest, PrintedFormReparsesIdentically) {
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ x | exists n (x in Person & n in Int & n = x.Age & "
               "n = 42) }");
  std::string printed = QueryToString(schema_, query);
  ConjunctiveQuery reparsed = MustParseQuery(schema_, printed);
  EXPECT_EQ(reparsed, query) << printed;
}

// --------------------------- satisfiability ---------------------------

TEST_F(ConstantsTest, TwoDistinctConstantsUnsat) {
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ n | n in Int & n = 1 & n = 2 }");
  EXPECT_FALSE(CheckSatisfiable(schema_, query).satisfiable);
}

TEST_F(ConstantsTest, SameConstantTwiceSat) {
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ n | n in Int & n = 1 & n = 1 }");
  EXPECT_TRUE(CheckSatisfiable(schema_, query).satisfiable);
}

TEST_F(ConstantsTest, ConstantThroughEqualityChainUnsat) {
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ n | exists m (n in Int & m in Int & n = m & n = 1 & "
               "m = 2) }");
  EXPECT_FALSE(CheckSatisfiable(schema_, query).satisfiable);
}

TEST_F(ConstantsTest, ConstantOutsideRangeClassUnsat) {
  ConjunctiveQuery query =
      MustParseQuery(schema_, "{ n | n in String & n = 42 }");
  EXPECT_FALSE(CheckSatisfiable(schema_, query).satisfiable);
}

TEST_F(ConstantsTest, InequalityBetweenSameConstantUnsat) {
  // n and m are in different equivalence classes but both pinned to 5.
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ n | exists m (n in Int & m in Int & n = 5 & m = 5 & "
               "n != m) }");
  EXPECT_FALSE(CheckSatisfiable(schema_, query).satisfiable);
}

TEST_F(ConstantsTest, InequalityBetweenDifferentConstantsSat) {
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ n | exists m (n in Int & m in Int & n = 5 & m = 7 & "
               "n != m) }");
  EXPECT_TRUE(CheckSatisfiable(schema_, query).satisfiable);
}

TEST_F(ConstantsTest, NormalizationMergesSameConstantClasses) {
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ n | exists m (n in Int & m in Int & n = 5 & m = 5) }");
  StatusOr<ConjunctiveQuery> normalized =
      NormalizeTerminalQuery(schema_, query);
  OOCQ_ASSERT_OK(normalized.status());
  bool has_equality = false;
  for (const Atom& atom : normalized->atoms()) {
    if (atom.kind() == AtomKind::kEquality) has_equality = true;
  }
  EXPECT_TRUE(has_equality);
}

// --------------------------- containment ---------------------------

TEST_F(ConstantsTest, ConstantQueryContainedInUnconstrained) {
  EXPECT_TRUE(*Contained(
      schema_,
      MustParseQuery(schema_, "{ x | exists n (x in Person & n in Int & "
                              "n = x.Age & n = 42) }"),
      MustParseQuery(schema_, "{ x | exists n (x in Person & n in Int & "
                              "n = x.Age) }")));
  EXPECT_FALSE(*Contained(
      schema_,
      MustParseQuery(schema_, "{ x | exists n (x in Person & n in Int & "
                              "n = x.Age) }"),
      MustParseQuery(schema_, "{ x | exists n (x in Person & n in Int & "
                              "n = x.Age & n = 42) }")));
}

TEST_F(ConstantsTest, DifferentConstantsNotContained) {
  EXPECT_FALSE(*Contained(
      schema_,
      MustParseQuery(schema_, "{ x | exists n (x in Person & n in Int & "
                              "n = x.Age & n = 42) }"),
      MustParseQuery(schema_, "{ x | exists n (x in Person & n in Int & "
                              "n = x.Age & n = 43) }")));
}

TEST_F(ConstantsTest, SameConstantForcesEqualityAcrossClasses) {
  // Q1 binds n and m separately to 5; Q2 asks for one shared witness of
  // x.Age and y.Age. Containment holds because normalization merges the
  // same-constant classes.
  ConjunctiveQuery q1 = MustParseQuery(
      schema_,
      "{ x | exists y exists n exists m (x in Person & y in Person & "
      "n in Int & m in Int & n = x.Age & m = y.Age & n = 5 & m = 5) }");
  ConjunctiveQuery q2 = MustParseQuery(
      schema_,
      "{ x | exists y exists n (x in Person & y in Person & n in Int & "
      "n = x.Age & n = y.Age) }");
  EXPECT_TRUE(*Contained(schema_, q1, q2));
}

TEST_F(ConstantsTest, ConstantDefeatsInequalityRhs) {
  // Q2 requires x.Age != y.Age; Q1 pins both to 5.
  ConjunctiveQuery q1 = MustParseQuery(
      schema_,
      "{ x | exists y exists n exists m (x in Person & y in Person & "
      "n in Int & m in Int & n = x.Age & m = y.Age & n = 5 & m = 5) }");
  ConjunctiveQuery q2 = MustParseQuery(
      schema_,
      "{ x | exists y exists n exists m (x in Person & y in Person & "
      "n in Int & m in Int & n = x.Age & m = y.Age & n != m) }");
  EXPECT_FALSE(*Contained(schema_, q1, q2));
}

TEST_F(ConstantsTest, DifferentConstantsSatisfyInequalityRhs) {
  ConjunctiveQuery q1 = MustParseQuery(
      schema_,
      "{ x | exists y exists n exists m (x in Person & y in Person & "
      "n in Int & m in Int & n = x.Age & m = y.Age & n = 5 & m = 7) }");
  ConjunctiveQuery q2 = MustParseQuery(
      schema_,
      "{ x | exists y exists n exists m (x in Person & y in Person & "
      "n in Int & m in Int & n = x.Age & m = y.Age & n != m) }");
  EXPECT_TRUE(*Contained(schema_, q1, q2));
}

// --------------------------- evaluation ---------------------------

TEST_F(ConstantsTest, EvaluationFiltersByConstant) {
  Oid alice = *state_.AddObject(person_);
  Oid bob = *state_.AddObject(person_);
  ASSERT_TRUE(state_
                  .SetAttribute(alice, "Name",
                                Value::Ref(state_.InternString("Alice")))
                  .ok());
  ASSERT_TRUE(
      state_.SetAttribute(alice, "Age", Value::Ref(state_.InternInt(42)))
          .ok());
  ASSERT_TRUE(
      state_.SetAttribute(bob, "Name", Value::Ref(state_.InternString("Bob")))
          .ok());
  ASSERT_TRUE(
      state_.SetAttribute(bob, "Age", Value::Ref(state_.InternInt(42))).ok());

  ConjunctiveQuery by_name = *NormalizeToWellFormed(
      schema_,
      MustParseQuery(schema_, "{ x | x in Person & x.Name = \"Alice\" }"));
  EXPECT_EQ(*Evaluate(state_, by_name), std::vector<Oid>{alice});

  ConjunctiveQuery by_age = *NormalizeToWellFormed(
      schema_, MustParseQuery(schema_, "{ x | x in Person & x.Age = 42 }"));
  EXPECT_EQ(Evaluate(state_, by_age)->size(), 2u);

  ConjunctiveQuery no_match = *NormalizeToWellFormed(
      schema_, MustParseQuery(schema_, "{ x | x in Person & x.Age = 99 }"));
  EXPECT_TRUE(Evaluate(state_, no_match)->empty());

  // The tree walker agrees, comparing payloads instead of interned oids.
  EvalOptions walker;
  walker.enable_compilation = false;
  EXPECT_EQ(*Evaluate(state_, by_name, walker), std::vector<Oid>{alice});
  EXPECT_EQ(Evaluate(state_, by_age, walker)->size(), 2u);
  EXPECT_TRUE(Evaluate(state_, no_match, walker)->empty());
}

// --------------------------- witness / canonical ---------------------------

TEST_F(ConstantsTest, CanonicalWitnessUsesTheLiteral) {
  ConjunctiveQuery query = *NormalizeToWellFormed(
      schema_,
      MustParseQuery(schema_, "{ x | x in Person & x.Name = \"Carol\" & "
                              "x.Age = 7 }"));
  StatusOr<State> witness = BuildCanonicalWitnessState(schema_, query);
  OOCQ_ASSERT_OK(witness.status());
  StatusOr<std::vector<Oid>> answers = Evaluate(*witness, query);
  OOCQ_ASSERT_OK(answers.status());
  EXPECT_EQ(answers->size(), 1u);
}

TEST_F(ConstantsTest, WitnessRespectsConstantInequalities) {
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ n | exists m (n in Int & m in Int & n = 5 & n != m) }");
  StatusOr<State> witness = BuildCanonicalWitnessState(schema_, query);
  OOCQ_ASSERT_OK(witness.status());
  EXPECT_FALSE(Evaluate(*witness, query)->empty());
}

TEST_F(ConstantsTest, CanonicalKeyDistinguishesConstants) {
  ConjunctiveQuery a =
      MustParseQuery(schema_, "{ n | n in Int & n = 1 }");
  ConjunctiveQuery b =
      MustParseQuery(schema_, "{ n | n in Int & n = 2 }");
  ConjunctiveQuery c =
      MustParseQuery(schema_, "{ m | m in Int & m = 1 }");
  EXPECT_NE(CanonicalKey(a), CanonicalKey(b));
  EXPECT_EQ(CanonicalKey(a), CanonicalKey(c));
}

// --------------------------- minimization ---------------------------

TEST_F(ConstantsTest, MinimizationFoldsSameConstantWitnesses) {
  // Two witnesses both pinned to 42 collapse to one.
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ x | exists n exists m (x in Person & n in Int & m in Int & "
      "n = x.Age & m = x.Age & n = 42 & m = 42) }");
  StatusOr<MinimizationReport> report = MinimizePositiveQuery(schema_, query);
  OOCQ_ASSERT_OK(report.status());
  ASSERT_EQ(report->minimized.disjuncts.size(), 1u);
  EXPECT_EQ(report->minimized.disjuncts[0].num_vars(), 2u);
}

TEST_F(ConstantsTest, OptimizerPipelineHandlesConstants) {
  QueryOptimizer optimizer(schema_);
  StatusOr<OptimizeReport> report = optimizer.OptimizeText(
      "{ x | exists f (x in Person & f in Person & f in x.Friends & "
      "f.Name = \"Alice\") }");
  OOCQ_ASSERT_OK(report.status());
  EXPECT_TRUE(report->exact);
  EXPECT_EQ(report->optimized.disjuncts.size(), 1u);
}

}  // namespace
}  // namespace oocq
