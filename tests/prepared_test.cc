// A disjunct a pruned Prop 2.1 expansion kept comes with the prune's
// facts (core/prepared.h): well-formed, terminal, satisfiable, and its own
// normal form. These tests hold those facts to what PreparedDisjunct
// derives from the bare query, on seeded random queries over every
// generator flag combination, non-terminal ranges and non-range atoms
// included.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <type_traits>

#include "core/expansion.h"
#include "core/prepared.h"
#include "core/satisfiability.h"
#include "query/printer.h"
#include "support/metrics.h"
#include "random_query.h"
#include "test_util.h"

namespace oocq {
namespace {

using ::oocq::testing::GenerateRandomQuery;
using ::oocq::testing::MustParseQuery;
using ::oocq::testing::MustParseSchema;
using ::oocq::testing::RandomQueryParams;

// Only the pruned expansion makes a PrunedDisjunct.
static_assert(!std::is_default_constructible_v<PrunedDisjunct>);
static_assert(!std::is_constructible_v<PrunedDisjunct, ConjunctiveQuery>);
static_assert(
    !std::is_constructible_v<PrunedDisjunct, const ConjunctiveQuery&>);

constexpr char kSchema[] = R"(
schema Shared {
  class D { }
  class E under D { }
  class F under D { }
  class C { A: D; S: {D}; SE: {E}; N: Int; Tag: String; }
  class K { R: C; M: {C}; }
  class K2 under K { }
})";

TEST(PrunedFactsTest, EstablishedFactsEqualDerivedOnes) {
  Schema schema = MustParseSchema(kSchema);
  uint64_t disjuncts = 0, non_terminal = 0, dropped_non_range = 0;
  for (int flags = 0; flags < 16; ++flags) {
    RandomQueryParams params;
    params.max_vars = 4;
    params.max_extra_atoms = 6;
    params.allow_negative = (flags & 1) != 0;
    params.terminal_only = (flags & 2) != 0;
    params.use_builtins = (flags & 4) != 0;
    params.use_constants = (flags & 8) != 0;
    std::mt19937_64 rng(20261019 + flags);
    for (int round = 0; round < 500; ++round) {
      const ConjunctiveQuery query = GenerateRandomQuery(schema, rng, params);
      StatusOr<PreparedQuery> prepared = PrepareQuery(schema, query);
      if (!prepared.ok()) continue;
      bool has_non_range = false;
      for (const Atom& atom : query.atoms()) {
        has_non_range |= atom.kind() == AtomKind::kNonRange;
      }
      if (!query.IsTerminal(schema)) ++non_terminal;
      for (const auto& established : prepared->disjuncts) {
        ++disjuncts;
        const ConjunctiveQuery& disjunct = established->query();
        const std::string where = QueryToString(schema, query) + "\n  -> " +
                                  QueryToString(schema, disjunct);
        const PreparedDisjunct derived(schema, disjunct);
        EXPECT_EQ(established->well_formed().ToString(),
                  derived.well_formed().ToString())
            << where;
        EXPECT_TRUE(derived.terminal()) << where;
        EXPECT_EQ(established->terminal(), derived.terminal()) << where;
        EXPECT_TRUE(derived.satisfiable()) << where;
        EXPECT_EQ(established->satisfiable(), derived.satisfiable()) << where;
        EXPECT_EQ(established->positive(), derived.positive()) << where;
        EXPECT_EQ(established->normalized(), derived.normalized()) << where;
        EXPECT_EQ(QueryToString(schema, established->normalized()),
                  QueryToString(schema, derived.normalized()))
            << where;
        EXPECT_EQ(established->key(), derived.key()) << where;
        StatusOr<ConjunctiveQuery> again =
            NormalizeTerminalQuery(schema, disjunct);
        ASSERT_TRUE(again.ok()) << where;
        EXPECT_EQ(*again, disjunct) << where;
        for (const Atom& atom : disjunct.atoms()) {
          EXPECT_NE(atom.kind(), AtomKind::kNonRange) << where;
        }
        if (has_non_range) ++dropped_non_range;
      }
    }
  }
  EXPECT_GT(disjuncts, 4000u);
  EXPECT_GT(non_terminal, 1500u);
  // Disjuncts of queries with a non-range atom, which the prune's
  // normalization dropped.
  EXPECT_GT(dropped_non_range, 500u);
}

// Reading a pruned disjunct's facts and key runs no Thm 2.2 check; the
// same disjunct prepared bare runs one.
TEST(PrunedFactsTest, EstablishedFactsRunNoSatisfiabilityCheck) {
  Schema schema = MustParseSchema(kSchema);
  const ConjunctiveQuery query = MustParseQuery(
      schema,
      "{ x | exists y exists z (x in D & y in D & z in C & x in z.S & "
      "y in z.S & x notin E) }");
  StatusOr<PreparedQuery> prepared = PrepareQuery(schema, query);
  OOCQ_ASSERT_OK(prepared.status());
  ASSERT_EQ(prepared->disjuncts.size(), 2u);  // x in F; y in E or F

  MetricsRegistry registry;
  {
    MetricsScope scope(&registry);
    ASSERT_TRUE(scope.active());
    for (const auto& disjunct : prepared->disjuncts) {
      OOCQ_EXPECT_OK(disjunct->well_formed());
      EXPECT_TRUE(disjunct->terminal());
      EXPECT_TRUE(disjunct->satisfiable());
      EXPECT_TRUE(disjunct->positive());
      EXPECT_EQ(disjunct->normalized(), disjunct->query());
      EXPECT_FALSE(disjunct->key().empty());
    }
  }
  EXPECT_EQ(registry.CounterValue("satisfiability/checks"), 0u);

  MetricsRegistry bare;
  {
    MetricsScope scope(&bare);
    ASSERT_TRUE(scope.active());
    const PreparedDisjunct derived(schema, prepared->disjuncts[0]->query());
    EXPECT_TRUE(derived.satisfiable());
  }
  EXPECT_GT(bare.CounterValue("satisfiability/checks"), 0u);
}

// Without pruning the expansion keeps every combination, and each derives
// its own facts: an unsatisfiable one says so.
TEST(PrunedFactsTest, UnprunedDisjunctsDeriveTheirFacts) {
  Schema schema = MustParseSchema(kSchema);
  const ConjunctiveQuery query =
      MustParseQuery(schema, "{ x | x in D & x notin E }");
  ExpansionOptions options;
  options.prune_unsatisfiable = false;
  StatusOr<PreparedQuery> prepared = PrepareQuery(schema, query, options);
  OOCQ_ASSERT_OK(prepared.status());
  ASSERT_EQ(prepared->disjuncts.size(), 2u);  // x in E, x in F
  EXPECT_TRUE(prepared->disjuncts[0]->terminal());
  EXPECT_FALSE(prepared->disjuncts[0]->satisfiable());
  EXPECT_FALSE(prepared->disjuncts[0]->unsatisfiable_reason().empty());
  EXPECT_TRUE(prepared->disjuncts[1]->satisfiable());
  EXPECT_TRUE(prepared->disjuncts[1]->positive());
}

}  // namespace
}  // namespace oocq
