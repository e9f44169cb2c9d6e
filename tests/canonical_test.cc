// Tests for query canonicalization: renamings collapse to one canonical
// form; distinct queries keep distinct keys; random renaming property;
// byte equality with the reference string canonicalization
// (canonical_reference.h); the tie-break search on interchangeable
// variables.

#include "core/canonical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "canonical_reference.h"
#include "query/printer.h"
#include "random_query.h"
#include "support/metrics.h"
#include "test_util.h"

namespace oocq {
namespace {

using ::oocq::testing::GenerateRandomQuery;
using ::oocq::testing::MustParseQuery;
using ::oocq::testing::MustParseSchema;
using ::oocq::testing::RandomQueryParams;
namespace reference = ::oocq::testing::reference;

class CanonicalTest : public ::testing::Test {
 protected:
  Schema schema_ = MustParseSchema(R"(
schema Can {
  class D { }
  class E under D { }
  class F under D { }
  class C { A: D; B: D; S: {D}; }
})");
};

TEST_F(CanonicalTest, RenamedQueriesShareKey) {
  ConjunctiveQuery a = MustParseQuery(
      schema_, "{ x | exists u (x in C & u in E & u = x.A & u in x.S) }");
  ConjunctiveQuery b = MustParseQuery(
      schema_, "{ q | exists w (q in C & w in E & w = q.A & w in q.S) }");
  EXPECT_EQ(CanonicalKey(a), CanonicalKey(b));
  EXPECT_EQ(CanonicalizeQuery(a), CanonicalizeQuery(b));
}

TEST_F(CanonicalTest, QuantifierOrderIrrelevant) {
  ConjunctiveQuery a = MustParseQuery(
      schema_,
      "{ x | exists u exists w (x in C & u in E & w in F & u = x.A & "
      "w = x.B) }");
  ConjunctiveQuery b = MustParseQuery(
      schema_,
      "{ x | exists w exists u (x in C & u in F & w in E & w = x.A & "
      "u = x.B) }");
  EXPECT_EQ(CanonicalKey(a), CanonicalKey(b));
}

TEST_F(CanonicalTest, AtomOrderIrrelevant) {
  ConjunctiveQuery a = MustParseQuery(
      schema_, "{ x | exists u (x in C & u in E & u = x.A & u in x.S) }");
  ConjunctiveQuery b = MustParseQuery(
      schema_, "{ x | exists u (u in x.S & u = x.A & u in E & x in C) }");
  EXPECT_EQ(CanonicalKey(a), CanonicalKey(b));
}

TEST_F(CanonicalTest, DifferentQueriesDifferentKeys) {
  const char* queries[] = {
      "{ x | x in E }",
      "{ x | x in F }",
      "{ x | exists u (x in C & u in E & u = x.A) }",
      "{ x | exists u (x in C & u in E & u = x.B) }",
      "{ x | exists u (x in C & u in E & u in x.S) }",
      "{ x | exists u (x in C & u in E & u notin x.S) }",
      "{ x | exists u exists w (x in C & u in E & w in E & u in x.S & "
      "w in x.S) }",
  };
  std::set<std::string> keys;
  for (const char* text : queries) {
    keys.insert(CanonicalKey(MustParseQuery(schema_, text)));
  }
  EXPECT_EQ(keys.size(), std::size(queries));
}

TEST_F(CanonicalTest, FreeVariableDistinguishes) {
  // Same atoms, different answer variable.
  ConjunctiveQuery a = MustParseQuery(
      schema_, "{ x | exists u (x in E & u in E & x != u) }");
  ConjunctiveQuery b = MustParseQuery(
      schema_, "{ u | exists x (u in E & x in E & x != u) }");
  // These ARE renamings of each other (swap names): keys equal.
  EXPECT_EQ(CanonicalKey(a), CanonicalKey(b));

  ConjunctiveQuery c = MustParseQuery(
      schema_, "{ x | exists u (x in C & u in E & u = x.A) }");
  ConjunctiveQuery d = MustParseQuery(
      schema_, "{ u | exists x (x in C & u in E & u = x.A) }");
  EXPECT_NE(CanonicalKey(c), CanonicalKey(d));
}

TEST_F(CanonicalTest, SymmetricTieGroupsResolve) {
  // u and w are fully interchangeable: all 2 orderings must canonicalize
  // identically.
  ConjunctiveQuery a = MustParseQuery(
      schema_,
      "{ x | exists u exists w (x in C & u in E & w in E & u in x.S & "
      "w in x.S) }");
  ConjunctiveQuery b = MustParseQuery(
      schema_,
      "{ x | exists w exists u (x in C & u in E & w in E & w in x.S & "
      "u in x.S) }");
  EXPECT_EQ(CanonicalKey(a), CanonicalKey(b));
}

TEST_F(CanonicalTest, CanonicalFormIsIdempotent) {
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ x | exists u exists w (x in C & u in E & w in F & u = x.A & "
      "w = x.B & u in x.S) }");
  ConjunctiveQuery once = CanonicalizeQuery(query);
  ConjunctiveQuery twice = CanonicalizeQuery(once);
  EXPECT_EQ(once, twice);
}

class CanonicalProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  Schema schema_ = MustParseSchema(R"(
schema CanProp {
  class D { }
  class E under D { }
  class F under D { }
  class C { A: D; S: {D}; }
})");
};

TEST_P(CanonicalProperty, RandomRenamingsCollapse) {
  std::mt19937_64 rng(GetParam());
  RandomQueryParams params;
  params.allow_negative = true;
  params.max_vars = 5;
  for (int round = 0; round < 15; ++round) {
    ConjunctiveQuery query = GenerateRandomQuery(schema_, rng, params);

    // Random bijective renaming: permute variable ids.
    std::vector<VarId> perm(query.num_vars());
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), rng);
    ConjunctiveQuery renamed;
    std::vector<VarId> inverse(perm.size());
    for (VarId v = 0; v < perm.size(); ++v) inverse[perm[v]] = v;
    for (VarId v = 0; v < perm.size(); ++v) {
      renamed.AddVariable("r" + std::to_string(v));
    }
    renamed.set_free_var(perm[query.free_var()]);
    for (const Atom& atom : query.atoms()) {
      renamed.AddAtom(atom.MapVariables(perm));
    }

    EXPECT_EQ(CanonicalKey(query), CanonicalKey(renamed));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalProperty,
                         ::testing::Range(uint64_t{0}, uint64_t{8}));

// Every generator axis: negative atoms, non-terminal and disjunctive
// ranges, built-in classes, constants, up to 8 variables and 10 extra
// atoms; every third query also gets a non-range atom, which the
// generator never emits. Keys and canonical forms must be the
// reference's, byte for byte — at the default tie budget and at a budget
// of 6, where groups of four or more fall back to the refinement order.
TEST(CanonicalDifferential, MatchesReferenceOnRandomQueries) {
  const Schema schema = MustParseSchema(R"(
schema CanDiff {
  class D { N: Int; }
  class E under D { R: Real; }
  class F under D { }
  class C { A: D; B: E; M: String; S: {D}; T: {E}; }
  class C1 under C { }
})");
  const std::vector<ClassId> classes = schema.UserClasses();
  MetricsRegistry registry;
  MetricsScope scope(&registry);
  std::mt19937_64 rng(20261019);
  size_t queries = 0;
  size_t with_constants = 0;
  for (int axes = 0; axes < 16; ++axes) {
    for (uint32_t max_vars = 1; max_vars <= 8; ++max_vars) {
      for (uint32_t max_extra_atoms : {0u, 5u, 10u}) {
        RandomQueryParams params;
        params.allow_negative = (axes & 1) != 0;
        params.terminal_only = (axes & 2) == 0;
        params.use_builtins = (axes & 4) != 0;
        params.use_constants = (axes & 8) != 0;
        params.max_vars = max_vars;
        params.max_extra_atoms = max_extra_atoms;
        for (int i = 0; i < 27; ++i, ++queries) {
          ConjunctiveQuery query = GenerateRandomQuery(schema, rng, params);
          if (i % 3 == 0) {
            query.AddAtom(Atom::NonRange(
                static_cast<VarId>(rng() % query.num_vars()),
                {classes[rng() % classes.size()]}));
          }
          const std::string text = QueryToString(schema, query);
          ASSERT_EQ(CanonicalKey(query), reference::CanonicalKey(query)) << text;
          ASSERT_EQ(CanonicalizeQuery(query), reference::CanonicalizeQuery(query))
              << text;
          ASSERT_EQ(CanonicalKey(query, 6), reference::CanonicalKey(query, 6))
              << text;
          with_constants += std::count_if(
              query.atoms().begin(), query.atoms().end(), [](const Atom& atom) {
                return atom.kind() == AtomKind::kConstant;
              }) > 0;
        }
      }
    }
  }
  EXPECT_GE(queries, 10'000u);
  EXPECT_GT(with_constants, 100u);
  // The tie-break search ran, not only the refinement order.
  EXPECT_GT(registry.CounterValue("canonical/orders_encoded"), 0u);
}

// Past ten colors the ranks order as strings ("c10" < "c2"), in every
// round's signatures and in the final group order. A membership chain
// from the free variable gives each of its 13 variables its own color.
TEST(CanonicalDifferential, MatchesReferencePastTenColors) {
  const Schema schema = MustParseSchema(R"(
schema Chain {
  class N { S: {N}; }
})");
  std::string text = "{ x |";
  for (int i = 0; i < 12; ++i) text += " exists y" + std::to_string(i);
  text += " (x in N & y0 in N & y0 in x.S";
  for (int i = 1; i < 12; ++i) {
    text += " & y" + std::to_string(i) + " in N & y" + std::to_string(i) +
            " in y" + std::to_string(i - 1) + ".S";
  }
  const ConjunctiveQuery chain = MustParseQuery(schema, text + ") }");
  EXPECT_EQ(CanonicalKey(chain), reference::CanonicalKey(chain));
  EXPECT_EQ(CanonicalizeQuery(chain), reference::CanonicalizeQuery(chain));

  // And random queries with up to 14 variables.
  std::mt19937_64 rng(11);
  RandomQueryParams params;
  params.allow_negative = true;
  params.max_vars = 14;
  params.max_extra_atoms = 24;
  for (int i = 0; i < 300; ++i) {
    const ConjunctiveQuery query = GenerateRandomQuery(schema, rng, params);
    ASSERT_EQ(CanonicalKey(query), reference::CanonicalKey(query))
        << QueryToString(schema, query);
  }
}

/// k bound members of x.S that nothing tells apart, and partial variants
/// that single one member out or add a non-membership to every member.
enum class Symmetry { kPlain, kSubclassMember, kEqualMember, kNotinEveryMember };

std::string SymmetricQueryText(int k, Symmetry variant) {
  std::string text = "{ x |";
  for (int i = 0; i < k; ++i) text += " exists y" + std::to_string(i);
  text += " (x in C";
  for (int i = 0; i < k; ++i) {
    const std::string y = "y" + std::to_string(i);
    text += " & " + y + " in " +
            (i == 0 && variant == Symmetry::kSubclassMember ? "E" : "D");
    text += " & " + y + " in x.S";
    if (variant == Symmetry::kNotinEveryMember) text += " & " + y + " notin x.T";
  }
  if (variant == Symmetry::kEqualMember) text += " & y0 = x.A";
  return text + ") }";
}

class CanonicalSymmetricTest : public ::testing::Test {
 protected:
  /// CanonicalKey(query) and the canonical/orders_encoded it added.
  std::pair<std::string, uint64_t> KeyAndOrders(const ConjunctiveQuery& query) {
    MetricsRegistry registry;
    MetricsScope scope(&registry);
    std::string key = CanonicalKey(query);
    return {key, registry.CounterValue("canonical/orders_encoded")};
  }

  Schema schema_ = MustParseSchema(R"(
schema Sym {
  class D { }
  class E under D { }
  class C { A: D; S: {D}; T: {D}; }
  class N { S: {N}; }
})");
};

TEST_F(CanonicalSymmetricTest, FamilyMatchesReference) {
  for (Symmetry variant : {Symmetry::kPlain, Symmetry::kSubclassMember,
                           Symmetry::kEqualMember, Symmetry::kNotinEveryMember}) {
    for (int k = 1; k <= 8; ++k) {
      const std::string text = SymmetricQueryText(k, variant);
      const ConjunctiveQuery query = MustParseQuery(schema_, text);
      EXPECT_EQ(CanonicalKey(query), reference::CanonicalKey(query)) << text;
      EXPECT_EQ(CanonicalizeQuery(query), reference::CanonicalizeQuery(query))
          << text;
    }
  }
}

TEST_F(CanonicalSymmetricTest, InterchangeableGroupEncodesOneOrder) {
  // Seven interchangeable members: one order, not 7! = 5,040.
  const ConjunctiveQuery query =
      MustParseQuery(schema_, SymmetricQueryText(7, Symmetry::kPlain));
  const auto [key, orders] = KeyAndOrders(query);
  EXPECT_EQ(orders, 1u);
  EXPECT_EQ(key, reference::CanonicalKey(query));

  // y0 in E splits it off; the other six stay interchangeable.
  const ConjunctiveQuery split =
      MustParseQuery(schema_, SymmetricQueryText(7, Symmetry::kSubclassMember));
  EXPECT_EQ(KeyAndOrders(split).second, 1u);
}

TEST_F(CanonicalSymmetricTest, TiedButNotInterchangeableIsSearched) {
  // A directed 3-cycle: refinement cannot tell the members apart, but
  // swapping two reverses the cycle, so all 3! orders are encoded.
  const ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ x | exists y0 exists y1 exists y2 (x in N & y0 in N & y1 in N & "
      "y2 in N & y0 in y1.S & y1 in y2.S & y2 in y0.S) }");
  const auto [key, orders] = KeyAndOrders(query);
  EXPECT_EQ(orders, 6u);
  EXPECT_EQ(key, reference::CanonicalKey(query));
}

TEST_F(CanonicalSymmetricTest, BudgetCountsInterchangeableGroups) {
  // 8! orders exceed the 10,000 budget: the refinement order is kept and
  // nothing is searched, although the group is interchangeable.
  const ConjunctiveQuery over =
      MustParseQuery(schema_, SymmetricQueryText(8, Symmetry::kPlain));
  const auto [key, orders] = KeyAndOrders(over);
  EXPECT_EQ(orders, 0u);
  EXPECT_EQ(key, reference::CanonicalKey(over));

  // Nothing ties: no search either.
  const ConjunctiveQuery plain = MustParseQuery(
      schema_, "{ x | exists y (x in C & y in E & y = x.A) }");
  EXPECT_EQ(KeyAndOrders(plain).second, 0u);
}

}  // namespace
}  // namespace oocq
