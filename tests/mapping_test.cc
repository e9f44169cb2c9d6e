// Unit tests for the non-contradictory variable mapping search.

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/derivability.h"
#include "core/mapping.h"
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
using ::oocq::testing::PerturbSetAtoms;
using ::oocq::testing::RandomQueryParams;

class MappingTest : public ::testing::Test {
 protected:
  Schema schema_ = MustParseSchema(R"(
schema Map {
  class D { }
  class E under D { }
  class F under D { }
  class C { A: D; S: {D}; }
})");

  QueryAnalysis Analyze(const ConjunctiveQuery& query) {
    StatusOr<QueryAnalysis> analysis = QueryAnalysis::Create(schema_, query);
    EXPECT_TRUE(analysis.ok()) << analysis.status().ToString();
    return *std::move(analysis);
  }

  MappingResult Find(const std::string& from_text, const std::string& to_text,
                     MappingConstraints constraints = {}) {
    ConjunctiveQuery from = MustParseQuery(schema_, from_text);
    ConjunctiveQuery to = MustParseQuery(schema_, to_text);
    QueryAnalysis analysis = Analyze(to);
    return FindNonContradictoryMapping(schema_, from, analysis, constraints);
  }
};

TEST_F(MappingTest, IdentityMappingFound) {
  MappingResult result = Find("{ x | x in E }", "{ x | x in E }");
  ASSERT_TRUE(result.found());
  EXPECT_EQ((*result.image)[0], 0u);
}

TEST_F(MappingTest, RangeClassMustMatchExactly) {
  // E vs F: no candidate for the free variable.
  EXPECT_FALSE(Find("{ x | x in E }", "{ x | x in F }").found());
}

TEST_F(MappingTest, FoldsTwoVariablesOntoOne) {
  MappingResult result =
      Find("{ x | exists y (x in E & y in E) }", "{ x | x in E }");
  ASSERT_TRUE(result.found());
  EXPECT_EQ((*result.image)[0], 0u);
  EXPECT_EQ((*result.image)[1], 0u);
}

TEST_F(MappingTest, FreeVariableConditionViaEquivalence) {
  // Condition (i): the free variable may land on any variable equivalent
  // to the target free variable.
  MappingResult result = Find(
      "{ x | x in E }",
      "{ x | exists y (x in E & y in E & x = y) }");
  ASSERT_TRUE(result.found());
  VarId image = (*result.image)[0];
  EXPECT_TRUE(image == 0u || image == 1u);
}

TEST_F(MappingTest, FreeVariableCannotLandElsewhere) {
  MappingResult result = Find(
      "{ x | x in E }", "{ x | exists y (x in E & y in E) }");
  ASSERT_TRUE(result.found());
  EXPECT_EQ((*result.image)[0], 0u);
}

TEST_F(MappingTest, EqualityAtomMustBeDerivable) {
  // from: u = x.A; to has no x.A term.
  MappingResult result = Find(
      "{ x | exists u (x in C & u in E & u = x.A) }",
      "{ x | exists u (x in C & u in E) }");
  EXPECT_FALSE(result.found());

  result = Find(
      "{ x | exists u (x in C & u in E & u = x.A) }",
      "{ x | exists u (x in C & u in E & u = x.A) }");
  EXPECT_TRUE(result.found());
}

TEST_F(MappingTest, MembershipAtomMustBeDerivable) {
  MappingResult result = Find(
      "{ x | exists u (x in C & u in E & u in x.S) }",
      "{ x | exists u (x in C & u in E & u notin x.S) }");
  EXPECT_FALSE(result.found());
}

TEST_F(MappingTest, InequalityNeedsDistinctClasses) {
  // Mapping x != y onto a target where both candidates collapse fails.
  MappingResult result = Find(
      "{ x | exists y (x in E & y in E & x != y) }",
      "{ x | exists y (x in E & y in E & x = y) }");
  EXPECT_FALSE(result.found());

  result = Find(
      "{ x | exists y (x in E & y in E & x != y) }",
      "{ x | exists y (x in E & y in E & x != y) }");
  EXPECT_TRUE(result.found());
}

TEST_F(MappingTest, InequalityToleratedWithoutExplicitAtom) {
  // 'Does not contradict' only needs distinct equivalence classes in the
  // target, not an inequality atom.
  MappingResult result = Find(
      "{ x | exists y (x in E & y in E & x != y) }",
      "{ x | exists y (x in E & y in E) }");
  EXPECT_TRUE(result.found());
}

TEST_F(MappingTest, ForbiddenTargetExcluded) {
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ x | exists y (x in E & y in E) }");
  QueryAnalysis analysis = Analyze(query);
  MappingConstraints constraints;
  constraints.forbidden_target = 1;
  MappingResult result =
      FindNonContradictoryMapping(schema_, query, analysis, constraints);
  ASSERT_TRUE(result.found());
  EXPECT_EQ((*result.image)[1], 0u);  // y had to fold onto x.
}

TEST_F(MappingTest, ForbiddenTargetMakesSearchFail) {
  // y in x.S cannot fold onto x (different classes), so forbidding y
  // leaves no mapping.
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ x | exists y (x in C & y in E & y in x.S) }");
  QueryAnalysis analysis = Analyze(query);
  MappingConstraints constraints;
  constraints.forbidden_target = 1;
  EXPECT_FALSE(
      FindNonContradictoryMapping(schema_, query, analysis, constraints)
          .found());
}

TEST_F(MappingTest, StepBudgetExhaustion) {
  ConjunctiveQuery from = MustParseQuery(
      schema_,
      "{ a | exists b exists c exists d (a in E & b in E & c in E & "
      "d in E & a != b & b != c & c != d) }");
  ConjunctiveQuery to = MustParseQuery(
      schema_,
      "{ a | exists b exists c exists d (a in E & b in E & c in E & "
      "d in E) }");
  QueryAnalysis analysis = Analyze(to);
  MappingConstraints constraints;
  constraints.max_steps = 2;
  MappingResult result =
      FindNonContradictoryMapping(schema_, from, analysis, constraints);
  EXPECT_TRUE(result.exhausted);
  EXPECT_FALSE(result.found());
}

TEST_F(MappingTest, StepsAreCounted) {
  MappingResult result = Find("{ x | x in E }", "{ x | x in E }");
  EXPECT_GT(result.steps, 0u);
}

TEST_F(MappingTest, NonRangeAtomCheckedStatically) {
  // from has x notin F; image class E is not under F: fine.
  MappingResult result = Find("{ x | x in E & x notin F }",
                              "{ x | x in E }");
  EXPECT_TRUE(result.found());
}

/// `query` normalized, when it is well-formed and satisfiable.
std::optional<ConjunctiveQuery> Normalized(const Schema& schema,
                                           const ConjunctiveQuery& query) {
  if (!CheckWellFormed(schema, query).ok() ||
      !CheckSatisfiable(schema, query).satisfiable) {
    return std::nullopt;
  }
  StatusOr<ConjunctiveQuery> normalized =
      NormalizeTerminalQuery(schema, query);
  if (!normalized.ok()) return std::nullopt;
  return *std::move(normalized);
}

/// A normalized satisfiable terminal draw, or nullopt.
std::optional<ConjunctiveQuery> DrawTerminal(const Schema& schema,
                                             std::mt19937_64& rng) {
  RandomQueryParams params;
  params.max_vars = 4;
  params.max_extra_atoms = 5;
  params.allow_negative = true;
  return Normalized(schema, GenerateRandomQuery(schema, rng, params));
}

/// Thm 3.1's pool T, built as Contained() builds it: one membership atom
/// per (element class, set term) pair of `analysis` that keeps the query
/// satisfiable and is not already derivable.
std::vector<Atom> CandidatePool(const QueryAnalysis& analysis) {
  const ConjunctiveQuery& query = analysis.query();
  const EqualityGraph& graph = analysis.graph();
  std::vector<VarId> elements;
  std::set<TermId> element_seen;
  for (VarId v = 0; v < query.num_vars(); ++v) {
    if (element_seen.insert(graph.Find(graph.VarNode(v))).second) {
      elements.push_back(v);
    }
  }
  std::vector<std::pair<VarId, std::string>> sets;
  std::set<std::pair<TermId, std::string>> set_seen;
  for (const Atom& atom : query.atoms()) {
    if (atom.kind() != AtomKind::kMembership &&
        atom.kind() != AtomKind::kNonMembership) {
      continue;
    }
    if (set_seen
            .insert({graph.Find(graph.VarNode(atom.set_term().var)),
                     atom.set_term().attr})
            .second) {
      sets.emplace_back(atom.set_term().var, atom.set_term().attr);
    }
  }
  std::vector<Atom> pool;
  for (VarId element : elements) {
    for (const auto& [set_var, attr] : sets) {
      if (analysis.NotContradictsMembership(element, set_var, attr) &&
          !analysis.DerivesMembership(element, set_var, attr)) {
        pool.push_back(Atom::Membership(element, set_var, attr));
      }
    }
  }
  return pool;
}

TEST_F(MappingTest, PoolSignaturesAgreeWithPerSubsetSearches) {
  // One enumeration against the pool must answer, for every W ⊆ T, what
  // a separate search into base + W answers: some visited (required,
  // forbidden) signature serves W iff a mapping into base + W exists.
  std::mt19937_64 rng(20261018);
  int pairs = 0;
  int mixed = 0;  // pairs where some W is served and some is not
  for (int round = 0; round < 20000 && pairs < 400; ++round) {
    std::optional<ConjunctiveQuery> base = DrawTerminal(schema_, rng);
    if (!base.has_value()) continue;
    // Every other q2 is independent of base; the rest perturb base.
    std::optional<ConjunctiveQuery> q2;
    if (round % 2 == 0) {
      q2 = DrawTerminal(schema_, rng);
    } else if (std::optional<ConjunctiveQuery> perturbed =
                   PerturbSetAtoms(schema_, *base, rng)) {
      q2 = Normalized(schema_, *perturbed);
    }
    if (!q2.has_value()) continue;
    QueryAnalysis analysis = Analyze(*base);
    const std::vector<Atom> pool = CandidatePool(analysis);
    if (pool.empty() || pool.size() > 6) continue;
    ++pairs;

    MappingConstraints constraints;
    std::vector<std::pair<uint64_t, uint64_t>> signatures;
    MappingResult enumeration = EnumerateNonContradictoryMappings(
        schema_, *q2, analysis, constraints, pool, /*cancel=*/nullptr,
        [&signatures](uint64_t required, uint64_t forbidden) {
          signatures.emplace_back(required, forbidden);
          return true;
        });
    ASSERT_FALSE(enumeration.exhausted);
    ASSERT_FALSE(enumeration.found());  // the visitor never stops it

    int served_count = 0;
    const uint64_t total = uint64_t{1} << pool.size();
    for (uint64_t w = 0; w < total; ++w) {
      bool served = false;
      for (const auto& [required, forbidden] : signatures) {
        if ((w & required) == required && (w & forbidden) == 0) served = true;
      }
      ConjunctiveQuery target = *base;
      for (size_t i = 0; i < pool.size(); ++i) {
        if (w & (uint64_t{1} << i)) target.AddAtom(pool[i]);
      }
      QueryAnalysis target_analysis = Analyze(target);
      MappingResult search = FindNonContradictoryMapping(
          schema_, *q2, target_analysis, constraints);
      ASSERT_FALSE(search.exhausted);
      EXPECT_EQ(served, search.found())
          << "W=" << w << " of |T|=" << pool.size() << "\n  base "
          << QueryToString(schema_, *base) << "\n  q2   "
          << QueryToString(schema_, *q2);
      served_count += served ? 1 : 0;
    }
    if (served_count > 0 && static_cast<uint64_t>(served_count) < total) {
      ++mixed;
    }
  }
  EXPECT_GE(pairs, 400);
  EXPECT_GE(mixed, 50);
}

}  // namespace
}  // namespace oocq
