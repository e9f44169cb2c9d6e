// Unit tests for the containment engine beyond the paper's worked
// examples: Cor 3.4 fast path, Cor 3.2/3.3 loops, the full Thm 3.1,
// union containment (Thm 4.1), and edge cases.

#include <gtest/gtest.h>

#include <tuple>
#include <utility>

#include "core/containment.h"
#include "core/containment_cache.h"
#include "test_util.h"

namespace oocq {
namespace {

using ::oocq::testing::MustParseQuery;
using ::oocq::testing::MustParseSchema;

class ContainmentTest : public ::testing::Test {
 protected:
  Schema schema_ = MustParseSchema(R"(
schema Con {
  class D { }
  class E under D { }
  class F under D { }
  class C { A: D; B: D; S: {D}; T: {E}; }
})");

  bool IsContained(const std::string& q1, const std::string& q2) {
    StatusOr<bool> result = Contained(schema_, MustParseQuery(schema_, q1),
                                      MustParseQuery(schema_, q2));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() && *result;
  }
};

// --------------------------- basics ---------------------------

TEST_F(ContainmentTest, SelfContainment) {
  const char* queries[] = {
      "{ x | x in E }",
      "{ x | exists u (x in C & u in E & u = x.A) }",
      "{ x | exists y (x in E & y in E & x != y) }",
      "{ x | exists y (x in E & y in C & x in y.S) }",
      "{ x | exists y (x in E & y in C & x notin y.S) }",
  };
  for (const char* q : queries) {
    EXPECT_TRUE(IsContained(q, q)) << q;
  }
}

TEST_F(ContainmentTest, UnsatisfiableLhsContainedInAnything) {
  EXPECT_TRUE(IsContained("{ x | exists y (x in E & y in F & x = y) }",
                          "{ x | x in F }"));
}

TEST_F(ContainmentTest, SatisfiableLhsNotInUnsatisfiableRhs) {
  EXPECT_FALSE(IsContained("{ x | x in E }",
                           "{ x | exists y (x in E & y in F & x = y) }"));
}

TEST_F(ContainmentTest, DifferentFreeClassesNotContained) {
  EXPECT_FALSE(IsContained("{ x | x in E }", "{ x | x in F }"));
}

TEST_F(ContainmentTest, MoreAtomsContainedInFewer) {
  EXPECT_TRUE(IsContained(
      "{ x | exists u (x in C & u in E & u = x.A & u in x.S) }",
      "{ x | exists u (x in C & u in E & u = x.A) }"));
  EXPECT_FALSE(IsContained(
      "{ x | exists u (x in C & u in E & u = x.A) }",
      "{ x | exists u (x in C & u in E & u = x.A & u in x.S) }"));
}

TEST_F(ContainmentTest, ExtraBoundVariableFolds) {
  // Classic CQ redundancy: two witnesses fold to one.
  EXPECT_TRUE(IsContained(
      "{ x | exists u (x in C & u in E & u in x.S) }",
      "{ x | exists u exists v (x in C & u in E & v in E & u in x.S & "
      "v in x.S) }"));
}

TEST_F(ContainmentTest, NonTerminalQueryRejected) {
  StatusOr<bool> result =
      Contained(schema_, MustParseQuery(schema_, "{ x | x in D }"),
                MustParseQuery(schema_, "{ x | x in D }"));
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

// --------------------------- attribute chains ---------------------------

TEST_F(ContainmentTest, AttributeEqualityDirectionality) {
  // Q1 binds both A and B; Q2 only A.
  EXPECT_TRUE(IsContained(
      "{ x | exists u exists v (x in C & u in E & v in E & u = x.A & "
      "v = x.B) }",
      "{ x | exists u (x in C & u in E & u = x.A) }"));
  EXPECT_FALSE(IsContained(
      "{ x | exists u (x in C & u in E & u = x.A) }",
      "{ x | exists u exists v (x in C & u in E & v in E & u = x.A & "
      "v = x.B) }"));
}

TEST_F(ContainmentTest, SharedWitnessImpliesSeparateWitnesses) {
  // u = x.A & u = x.B (same witness) is contained in the query with
  // separate witnesses, not vice versa.
  EXPECT_TRUE(IsContained(
      "{ x | exists u (x in C & u in E & u = x.A & u = x.B) }",
      "{ x | exists u exists v (x in C & u in E & v in E & u = x.A & "
      "v = x.B) }"));
  EXPECT_FALSE(IsContained(
      "{ x | exists u exists v (x in C & u in E & v in E & u = x.A & "
      "v = x.B) }",
      "{ x | exists u (x in C & u in E & u = x.A & u = x.B) }"));
}

// --------------------------- inequalities (Cor 3.3) -------------------

TEST_F(ContainmentTest, InequalityRhsNeedsAllAugmentations) {
  // Q2 = x != y over E. Q1 with three vars & chain of inequalities is
  // contained (Ex 3.2 pattern), but a Q1 without any distinctness is not.
  EXPECT_FALSE(IsContained(
      "{ x | exists y (x in E & y in E) }",
      "{ x | exists y (x in E & y in E & x != y) }"));
}

TEST_F(ContainmentTest, InequalityImpliedByMembershipTyping) {
  // x in y.T forces x in E... but an F variable is distinct from x by
  // class; the inequality in Q2 is implied.
  EXPECT_TRUE(IsContained(
      "{ x | exists z (x in E & z in F) }",
      "{ x | exists z (x in E & z in F & x != z) }"));
}

TEST_F(ContainmentTest, InequalityOnAttributeTerms) {
  EXPECT_TRUE(IsContained(
      "{ x | exists u exists v (x in C & u in E & v in E & u = x.A & "
      "v = x.B & u != v) }",
      "{ x | exists u exists v (x in C & u in E & v in E & u = x.A & "
      "v = x.B) }"));
  EXPECT_FALSE(IsContained(
      "{ x | exists u exists v (x in C & u in E & v in E & u = x.A & "
      "v = x.B) }",
      "{ x | exists u exists v (x in C & u in E & v in E & u = x.A & "
      "v = x.B & u != v) }"));
}

TEST_F(ContainmentTest, EqualAttributesDefeatInequalityRhs) {
  // Q1 forces A = B; Q2 requires A != B.
  EXPECT_FALSE(IsContained(
      "{ x | exists u (x in C & u in E & u = x.A & u = x.B) }",
      "{ x | exists u exists v (x in C & u in E & v in E & u = x.A & "
      "v = x.B & u != v) }"));
}

// --------------------------- non-membership (Cor 3.2) -----------------

TEST_F(ContainmentTest, NonMembershipNeedsSetTermInLhs) {
  // Example 3.3 generalization over this schema.
  EXPECT_FALSE(IsContained(
      "{ x | exists y (x in E & y in C) }",
      "{ x | exists y (x in E & y in C & x notin y.S) }"));
}

TEST_F(ContainmentTest, NonMembershipWithSetTermStillUnsafe) {
  // Q1 mentions y.S (so it is non-null) but does not exclude x from it:
  // the W-subset containing 'x in y.S' has no mapping.
  EXPECT_FALSE(IsContained(
      "{ x | exists y exists u (x in E & y in C & u in E & u in y.S) }",
      "{ x | exists y (x in E & y in C & x notin y.S) }"));
}

TEST_F(ContainmentTest, NonMembershipDerivedFromNonMembership) {
  EXPECT_TRUE(IsContained(
      "{ x | exists y (x in E & y in C & x notin y.S) }",
      "{ x | exists y (x in E & y in C & x notin y.S) }"));
}

TEST_F(ContainmentTest, TypeTrivialNonMembershipNeedsNonNullSet) {
  // Q2's 'z notin y.T' is type-trivial (z in F, T holds E's) but forces
  // y.T non-null; Q1 says nothing about y.T.
  EXPECT_FALSE(IsContained(
      "{ x | exists y exists z (x in E & y in C & z in F) }",
      "{ x | exists y exists z (x in E & y in C & z in F & "
      "z notin y.T) }"));
  // With y.T pinned non-null in Q1 through a membership, it holds.
  EXPECT_TRUE(IsContained(
      "{ x | exists y exists z exists w (x in E & y in C & z in F & "
      "w in E & w in y.T) }",
      "{ x | exists y exists z (x in E & y in C & z in F & "
      "z notin y.T) }"));
}

TEST_F(ContainmentTest, MembershipPlusNonMembershipInteraction) {
  // Q1 puts x in y.S; Q2 demands x notin y.S: never contained.
  EXPECT_FALSE(IsContained(
      "{ x | exists y (x in E & y in C & x in y.S) }",
      "{ x | exists y (x in E & y in C & x notin y.S) }"));
}

// --------------------------- Thm 3.1 (both kinds) ---------------------

TEST_F(ContainmentTest, FullTheoremBothNegativeKinds) {
  const char* q2 =
      "{ x | exists y exists z (x in E & y in C & z in E & x != z & "
      "x notin y.S) }";
  // Q1 supplies distinctness (classes), the set term, and excludes x.
  EXPECT_TRUE(IsContained(
      "{ x | exists y exists z (x in E & y in C & z in E & x != z & "
      "x notin y.S) }",
      q2));
  // Remove the exclusion: not contained.
  EXPECT_FALSE(IsContained(
      "{ x | exists y exists z (x in E & y in C & z in E & x != z) }", q2));
}

TEST_F(ContainmentTest, StatsAreReported) {
  ContainmentStats stats;
  ConjunctiveQuery q1 = MustParseQuery(
      schema_, "{ x | exists y (x in E & y in E & x != y) }");
  ConjunctiveQuery q2 = MustParseQuery(
      schema_, "{ x | exists y (x in E & y in E & x != y) }");
  StatusOr<bool> result = Contained(schema_, q1, q2, {}, &stats);
  OOCQ_ASSERT_OK(result.status());
  EXPECT_TRUE(*result);
  EXPECT_GE(stats.augmentations, 1u);
  EXPECT_GE(stats.mapping_searches, 1u);
  EXPECT_GT(stats.mapping_steps, 0u);
}

TEST_F(ContainmentTest, MembershipCandidateCapEnforced) {
  ContainmentOptions options;
  options.max_membership_candidates = 0;
  // q1 mentions y.S without excluding x, so 'x in y.S' is a candidate
  // membership atom and |T| = 1 exceeds the cap of 0.
  ConjunctiveQuery q1 = MustParseQuery(
      schema_, "{ x | exists y exists u (x in E & y in C & u in E & "
               "u in y.S) }");
  ConjunctiveQuery q2 = MustParseQuery(
      schema_, "{ x | exists y (x in E & y in C & x notin y.S) }");
  StatusOr<bool> result = Contained(schema_, q1, q2, options);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(MembershipPoolCeilingTest, PoolPastSixtyThreeIsResourceExhausted) {
  // Each ui in x.S is a pool candidate, so |T| = n; W = T is the one
  // refuting subset (ui ∉ x.S for some i is what Q2 needs). A subset W
  // is a 64-bit mask, so whatever the configured cap, |T| stops at 63.
  Schema schema = MustParseSchema(R"(
schema Ceiling {
  class D { }
  class C { S: {D}; }
})");
  auto q1_with = [&schema](int n) {
    std::string vars = "exists s";
    std::string atoms = "x in C & s in D & s in x.S";
    for (int i = 1; i <= n; ++i) {
      vars += " exists u" + std::to_string(i);
      atoms += " & u" + std::to_string(i) + " in D";
    }
    return MustParseQuery(schema, "{ x | " + vars + " (" + atoms + ") }");
  };
  ConjunctiveQuery q2 = MustParseQuery(
      schema, "{ x | exists y (x in C & y in D & y notin x.S) }");
  ContainmentOptions options;
  options.max_membership_candidates = 100;

  StatusOr<bool> small = Contained(schema, q1_with(25), q2, options);
  OOCQ_ASSERT_OK(small.status());
  EXPECT_FALSE(*small);

  StatusOr<bool> large = Contained(schema, q1_with(64), q2, options);
  EXPECT_EQ(large.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(large.status().message().find("63"), std::string::npos)
      << large.status().ToString();
}

// --------------------------- equivalence ------------------------------

TEST_F(ContainmentTest, EquivalenceOfRenamedQueries) {
  ConjunctiveQuery q1 = MustParseQuery(
      schema_, "{ x | exists u (x in C & u in E & u in x.S) }");
  ConjunctiveQuery q2 = MustParseQuery(
      schema_, "{ a | exists b (a in C & b in E & b in a.S) }");
  StatusOr<bool> equivalent = EquivalentQueries(schema_, q1, q2);
  OOCQ_ASSERT_OK(equivalent.status());
  EXPECT_TRUE(*equivalent);
}

TEST_F(ContainmentTest, EquivalenceWithRedundantAtom) {
  ConjunctiveQuery q1 = MustParseQuery(
      schema_,
      "{ x | exists u exists v (x in C & u in E & v in E & u in x.S & "
      "v in x.S) }");
  ConjunctiveQuery q2 = MustParseQuery(
      schema_, "{ x | exists u (x in C & u in E & u in x.S) }");
  StatusOr<bool> equivalent = EquivalentQueries(schema_, q1, q2);
  OOCQ_ASSERT_OK(equivalent.status());
  EXPECT_TRUE(*equivalent);
}

// --------------------------- unions (Thm 4.1) -------------------------

class UnionContainmentTest : public ::testing::Test {
 protected:
  Schema schema_ = MustParseSchema(R"(
schema U {
  class D { }
  class E under D { }
  class F under D { }
  class C { A: D; S: {D}; }
})");

  UnionQuery Union(const std::string& text) {
    StatusOr<UnionQuery> parsed = ParseUnionQuery(schema_, text);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    return parsed.ok() ? *std::move(parsed) : UnionQuery();
  }
};

TEST_F(UnionContainmentTest, ComponentwiseContainment) {
  UnionQuery m = Union("{ x | x in E } union { x | x in F }");
  UnionQuery n = Union("{ x | x in F } union { x | x in E }");
  StatusOr<bool> result = UnionContained(schema_, m, n);
  OOCQ_ASSERT_OK(result.status());
  EXPECT_TRUE(*result);
}

TEST_F(UnionContainmentTest, MissingDisjunctBreaksContainment) {
  UnionQuery m = Union("{ x | x in E } union { x | x in F }");
  UnionQuery n = Union("{ x | x in E }");
  StatusOr<bool> result = UnionContained(schema_, m, n);
  OOCQ_ASSERT_OK(result.status());
  EXPECT_FALSE(*result);
}

TEST_F(UnionContainmentTest, SubsetOfDisjunctsContained) {
  UnionQuery m = Union("{ x | x in E }");
  UnionQuery n = Union("{ x | x in E } union { x | x in F }");
  StatusOr<bool> result = UnionContained(schema_, m, n);
  OOCQ_ASSERT_OK(result.status());
  EXPECT_TRUE(*result);
}

TEST_F(UnionContainmentTest, EmptyUnionContainedInAnything) {
  UnionQuery empty;
  UnionQuery n = Union("{ x | x in E }");
  StatusOr<bool> result = UnionContained(schema_, empty, n);
  OOCQ_ASSERT_OK(result.status());
  EXPECT_TRUE(*result);
  result = UnionContained(schema_, n, empty);
  OOCQ_ASSERT_OK(result.status());
  EXPECT_FALSE(*result);
}

TEST_F(UnionContainmentTest, UnsatisfiableDisjunctsIgnored) {
  UnionQuery m = Union(
      "{ x | x in E } union "
      "{ x | exists y (x in E & y in F & x = y) }");
  UnionQuery n = Union("{ x | x in E }");
  StatusOr<bool> result = UnionContained(schema_, m, n);
  OOCQ_ASSERT_OK(result.status());
  EXPECT_TRUE(*result);
}

TEST_F(UnionContainmentTest, NonPositiveDisjunctRejected) {
  UnionQuery m = Union("{ x | exists y (x in E & y in E & x != y) }");
  UnionQuery n = Union("{ x | x in E }");
  EXPECT_EQ(UnionContained(schema_, m, n).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(UnionContainmentTest, CrossClassInequalityNormalizesToPositive) {
  // The inequality E vs F is removed by normalization, so the disjunct
  // counts as positive for Thm 4.1.
  UnionQuery m = Union("{ x | exists y (x in E & y in F & x != y) }");
  UnionQuery n = Union("{ x | exists y (x in E & y in F) }");
  StatusOr<bool> result = UnionContained(schema_, m, n);
  OOCQ_ASSERT_OK(result.status());
  EXPECT_TRUE(*result);
}

// Thm 4.1 decides at the first disjunct of M contained in no disjunct of
// N: the tests run in order up to it, and none after it.
TEST_F(UnionContainmentTest, EarlyExitCountsOnlyTheTestsItRan) {
  const UnionQuery m = Union(
      "{ x | x in E } union { x | x in F } union "
      "{ x | exists y (x in C & y in E & y = x.A) }");
  const UnionQuery n = Union(
      "{ x | exists y (x in C & y in E & y = x.A) } union { x | x in E }");
  ASSERT_EQ(m.disjuncts.size(), 3u);
  ASSERT_EQ(n.disjuncts.size(), 2u);

  // d0 ⊄ n0, d0 ⊆ n1, then d1 in neither: four tests, in this order.
  ContainmentStats expected;
  for (const auto& [i, j] : {std::pair{0, 0}, {0, 1}, {1, 0}, {1, 1}}) {
    OOCQ_ASSERT_OK(
        Contained(schema_, m.disjuncts[i], n.disjuncts[j], {}, &expected)
            .status());
  }
  // The test of d2 the early exit skips does count work.
  ContainmentStats skipped;
  StatusOr<bool> d2_in_n0 =
      Contained(schema_, m.disjuncts[2], n.disjuncts[0], {}, &skipped);
  OOCQ_ASSERT_OK(d2_in_n0.status());
  EXPECT_TRUE(*d2_in_n0);
  EXPECT_GT(skipped.mapping_searches, 0u);

  auto fields = [](const ContainmentStats& s) {
    return std::make_tuple(s.augmentations, s.membership_subsets,
                           s.membership_subsets_skipped, s.mapping_searches,
                           s.mapping_steps, s.cache_hits, s.cache_misses);
  };
  ContainmentStats stats;
  StatusOr<bool> result = UnionContained(schema_, m, n, {}, &stats);
  OOCQ_ASSERT_OK(result.status());
  EXPECT_FALSE(*result);
  EXPECT_EQ(fields(stats), fields(expected));

  // Through a cache: one miss per test run, and no lookup for d2.
  ContainmentCache cache(&schema_);
  ContainmentStats cached;
  result = UnionContained(schema_, m, n, {}, &cached, &cache);
  OOCQ_ASSERT_OK(result.status());
  EXPECT_FALSE(*result);
  EXPECT_EQ(cached.cache_misses, 4u);
  EXPECT_EQ(cached.cache_hits, 0u);
  expected.cache_misses = 4;
  EXPECT_EQ(fields(cached), fields(expected));
}

TEST_F(UnionContainmentTest, UnionEquivalence) {
  UnionQuery m = Union("{ x | x in E } union { x | x in F }");
  UnionQuery n = Union("{ x | x in F } union { x | x in E }");
  StatusOr<bool> result = UnionEquivalent(schema_, m, n);
  OOCQ_ASSERT_OK(result.status());
  EXPECT_TRUE(*result);

  UnionQuery p = Union("{ x | x in E }");
  result = UnionEquivalent(schema_, m, p);
  OOCQ_ASSERT_OK(result.status());
  EXPECT_FALSE(*result);
}

}  // namespace
}  // namespace oocq
