// E5: randomized validation of the §4 minimization pipeline —
// equivalence preservation (symbolic and on states), idempotence,
// minimality (Cor 4.4), nonredundancy, the Thm 4.2 uniqueness
// property for nonredundant unions, and that every minimizer (§4's and
// §5's) is the one pipeline its steps spell out.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <tuple>

#include "core/containment.h"
#include "core/expansion.h"
#include "core/general_minimization.h"
#include "core/minimization.h"
#include "core/satisfiability.h"
#include "query/printer.h"
#include "query/well_formed.h"
#include "random_query.h"
#include "state/evaluation.h"
#include "state/generator.h"
#include "support/status_macros.h"
#include "test_util.h"

namespace oocq {
namespace {

using ::oocq::testing::GenerateRandomQuery;
using ::oocq::testing::MustParseSchema;
using ::oocq::testing::RandomQueryParams;

const char* const kMinSchema = R"(
schema MinProp {
  class D { }
  class E under D { }
  class F under D { }
  class C { A: D; S: {D}; }
  class C1 under C { }
  class C2 under C { B: E; }
})";

/// The minimizers' pipeline spelled out in raw-query steps: the Prop 2.1
/// expansion as a union, redundancy removal over it, then one
/// per-disjunct fold entry point on each kept disjunct —
/// FoldTerminalQueryVerified for §5's run, MinimizeTerminalPositive for
/// §4's.
StatusOr<MinimizationReport> StepByStep(const Schema& schema,
                                        const ConjunctiveQuery& query,
                                        bool verified) {
  MinimizationReport report;
  ExpansionStats expansion_stats;
  OOCQ_ASSIGN_OR_RETURN(
      UnionQuery expansion,
      ExpandToTerminalQueries(schema, query, {}, &expansion_stats));
  report.raw_disjuncts = expansion_stats.raw_disjuncts;
  report.satisfiable_disjuncts = expansion_stats.satisfiable_disjuncts;
  OOCQ_ASSIGN_OR_RETURN(UnionQuery kept,
                        RemoveRedundantDisjuncts(schema, expansion, {},
                                                 nullptr, &report.containment));
  report.nonredundant_disjuncts = kept.disjuncts.size();
  for (const ConjunctiveQuery& disjunct : kept.disjuncts) {
    OOCQ_ASSIGN_OR_RETURN(
        ConjunctiveQuery minimal,
        verified ? FoldTerminalQueryVerified(schema, disjunct, {},
                                             &report.variables_removed,
                                             &report.containment)
                 : MinimizeTerminalPositive(schema, disjunct, {},
                                            &report.variables_removed,
                                            &report.containment));
    report.minimized.disjuncts.push_back(std::move(minimal));
  }
  return report;
}

auto WorkOf(const ContainmentStats& stats) {
  return std::make_tuple(stats.augmentations, stats.membership_subsets,
                         stats.membership_subsets_skipped,
                         stats.mapping_searches, stats.mapping_steps,
                         stats.cache_hits, stats.cache_misses);
}

void ExpectSameRun(const Schema& schema,
                   const StatusOr<MinimizationReport>& got,
                   const StatusOr<MinimizationReport>& want,
                   const std::string& what) {
  ASSERT_EQ(got.ok(), want.ok())
      << what << "\n" << got.status().ToString() << " vs "
      << want.status().ToString();
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << what;
    return;
  }
  EXPECT_EQ(UnionQueryToString(schema, got->minimized),
            UnionQueryToString(schema, want->minimized))
      << what;
  EXPECT_EQ(got->raw_disjuncts, want->raw_disjuncts) << what;
  EXPECT_EQ(got->satisfiable_disjuncts, want->satisfiable_disjuncts) << what;
  EXPECT_EQ(got->nonredundant_disjuncts, want->nonredundant_disjuncts)
      << what;
  EXPECT_EQ(got->variables_removed, want->variables_removed) << what;
  EXPECT_EQ(WorkOf(got->containment), WorkOf(want->containment)) << what;
}

class MinimizationProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  Schema schema_ = MustParseSchema(kMinSchema);

  // A random positive (possibly non-terminal) well-formed query, or
  // nullopt if this draw is unusable.
  std::optional<ConjunctiveQuery> Draw(std::mt19937_64& rng) {
    RandomQueryParams params;
    params.terminal_only = false;
    params.max_vars = 4;
    ConjunctiveQuery query = GenerateRandomQuery(schema_, rng, params);
    if (!CheckWellFormed(schema_, query).ok()) return std::nullopt;
    return query;
  }
};

TEST_P(MinimizationProperty, MinimizedAnswersMatchOriginalOnStates) {
  std::mt19937_64 rng(GetParam());
  for (int round = 0; round < 8; ++round) {
    std::optional<ConjunctiveQuery> query = Draw(rng);
    if (!query.has_value()) continue;
    StatusOr<MinimizationReport> report =
        MinimizePositiveQuery(schema_, *query);
    if (!report.ok()) continue;

    for (uint64_t seed = 0; seed < 4; ++seed) {
      GeneratorParams gen;
      gen.seed = GetParam() * 57 + seed;
      gen.objects_per_class = 4;
      State state = GenerateRandomState(schema_, gen);
      std::vector<Oid> original = *Evaluate(state, *query);
      std::vector<Oid> minimized = *EvaluateUnion(state, report->minimized);
      EXPECT_EQ(original, minimized)
          << "minimization changed answers:\n  Q = "
          << QueryToString(schema_, *query) << "\n  M = "
          << UnionQueryToString(schema_, report->minimized);
    }
  }
}

TEST_P(MinimizationProperty, MinimizedEquivalentToExpansionSymbolically) {
  std::mt19937_64 rng(GetParam() + 3000);
  for (int round = 0; round < 5; ++round) {
    std::optional<ConjunctiveQuery> query = Draw(rng);
    if (!query.has_value()) continue;
    StatusOr<MinimizationReport> report =
        MinimizePositiveQuery(schema_, *query);
    if (!report.ok()) continue;
    StatusOr<UnionQuery> expansion = ExpandToTerminalQueries(schema_, *query);
    if (!expansion.ok()) continue;
    StatusOr<bool> equivalent =
        UnionEquivalent(schema_, report->minimized, *expansion);
    if (!equivalent.ok()) continue;
    EXPECT_TRUE(*equivalent) << QueryToString(schema_, *query);
  }
}

TEST_P(MinimizationProperty, EveryOutputDisjunctIsMinimalAndSatisfiable) {
  std::mt19937_64 rng(GetParam() + 6000);
  for (int round = 0; round < 6; ++round) {
    std::optional<ConjunctiveQuery> query = Draw(rng);
    if (!query.has_value()) continue;
    StatusOr<MinimizationReport> report =
        MinimizePositiveQuery(schema_, *query);
    if (!report.ok()) continue;
    for (const ConjunctiveQuery& disjunct : report->minimized.disjuncts) {
      EXPECT_TRUE(CheckSatisfiable(schema_, disjunct).satisfiable);
      StatusOr<bool> minimal = IsMinimalTerminalPositive(schema_, disjunct);
      OOCQ_ASSERT_OK(minimal.status());
      EXPECT_TRUE(*minimal) << QueryToString(schema_, disjunct);
    }
  }
}

TEST_P(MinimizationProperty, OutputIsNonredundant) {
  std::mt19937_64 rng(GetParam() + 9000);
  for (int round = 0; round < 5; ++round) {
    std::optional<ConjunctiveQuery> query = Draw(rng);
    if (!query.has_value()) continue;
    StatusOr<MinimizationReport> report =
        MinimizePositiveQuery(schema_, *query);
    if (!report.ok()) continue;
    const std::vector<ConjunctiveQuery>& disjuncts =
        report->minimized.disjuncts;
    for (size_t i = 0; i < disjuncts.size(); ++i) {
      for (size_t j = 0; j < disjuncts.size(); ++j) {
        if (i == j) continue;
        StatusOr<bool> contained =
            Contained(schema_, disjuncts[i], disjuncts[j]);
        OOCQ_ASSERT_OK(contained.status());
        EXPECT_FALSE(*contained)
            << "redundant disjunct survived minimization";
      }
    }
  }
}

TEST_P(MinimizationProperty, Theorem42UniquenessOfNonredundantUnions) {
  // Thm 4.2: two equivalent nonredundant unions pair up disjunct-by-
  // disjunct (unique partner, equal cardinality). Build a second
  // nonredundant union by shuffling the expansion before redundancy
  // removal; both results must pair up.
  std::mt19937_64 rng(GetParam() + 12000);
  for (int round = 0; round < 4; ++round) {
    std::optional<ConjunctiveQuery> query = Draw(rng);
    if (!query.has_value()) continue;
    StatusOr<UnionQuery> expansion = ExpandToTerminalQueries(schema_, *query);
    if (!expansion.ok() || expansion->disjuncts.size() < 2) continue;

    UnionQuery shuffled = *expansion;
    std::shuffle(shuffled.disjuncts.begin(), shuffled.disjuncts.end(), rng);

    StatusOr<UnionQuery> m = RemoveRedundantDisjuncts(schema_, *expansion);
    StatusOr<UnionQuery> n = RemoveRedundantDisjuncts(schema_, shuffled);
    OOCQ_ASSERT_OK(m.status());
    OOCQ_ASSERT_OK(n.status());

    ASSERT_EQ(m->disjuncts.size(), n->disjuncts.size());
    // Each disjunct of M has exactly one equivalent partner in N.
    for (const ConjunctiveQuery& qi : m->disjuncts) {
      int partners = 0;
      for (const ConjunctiveQuery& pj : n->disjuncts) {
        StatusOr<bool> equivalent = EquivalentQueries(schema_, qi, pj);
        OOCQ_ASSERT_OK(equivalent.status());
        if (*equivalent) ++partners;
      }
      EXPECT_EQ(partners, 1) << QueryToString(schema_, qi);
    }
  }
}

TEST_P(MinimizationProperty, Theorem45MinimalEquivalentsAreBijective) {
  // Thm 4.5: equivalent minimal terminal positive queries have the same
  // number of variables (every non-contradictory mapping between them is
  // bijective). Minimize two disjuncts; whenever equivalent, their sizes
  // must agree.
  std::mt19937_64 rng(GetParam() + 15000);
  for (int round = 0; round < 5; ++round) {
    std::optional<ConjunctiveQuery> query = Draw(rng);
    if (!query.has_value()) continue;
    StatusOr<UnionQuery> expansion = ExpandToTerminalQueries(schema_, *query);
    if (!expansion.ok()) continue;
    std::vector<ConjunctiveQuery> minimal;
    for (const ConjunctiveQuery& disjunct : expansion->disjuncts) {
      StatusOr<ConjunctiveQuery> m = MinimizeTerminalPositive(schema_, disjunct);
      if (m.ok()) minimal.push_back(*std::move(m));
    }
    for (size_t i = 0; i < minimal.size(); ++i) {
      for (size_t j = i + 1; j < minimal.size(); ++j) {
        StatusOr<bool> equivalent =
            EquivalentQueries(schema_, minimal[i], minimal[j]);
        OOCQ_ASSERT_OK(equivalent.status());
        if (*equivalent) {
          EXPECT_EQ(minimal[i].num_vars(), minimal[j].num_vars())
              << QueryToString(schema_, minimal[i]) << " vs "
              << QueryToString(schema_, minimal[j]);
        }
      }
    }
  }
}

// One pipeline: MinimizeConjunctiveQuery equals the §5 steps on any
// input; MinimizePositiveQuery and MinimizePositiveUnion equal the §4
// steps on a positive one, and there MinimizeConjunctiveQuery equals
// MinimizePositiveQuery. Unions, counts and work counters alike.
TEST_P(MinimizationProperty, MinimizersMatchTheirStepByStepPipeline) {
  std::mt19937_64 rng(GetParam() + 18000);
  int general = 0;
  int folded = 0;
  for (int round = 0; round < 40; ++round) {
    RandomQueryParams params;
    params.terminal_only = false;
    params.max_vars = 4;
    params.allow_negative = round % 2 == 1;
    ConjunctiveQuery query = GenerateRandomQuery(schema_, rng, params);
    if (!CheckWellFormed(schema_, query).ok()) continue;
    const std::string what = QueryToString(schema_, query);

    StatusOr<MinimizationReport> verified =
        MinimizeConjunctiveQuery(schema_, query);
    ExpectSameRun(schema_, verified, StepByStep(schema_, query, true),
                  "MinimizeConjunctiveQuery " + what);
    if (verified.ok() && verified->variables_removed > 0) ++folded;
    if (!query.IsPositive()) {
      ++general;
      continue;
    }
    StatusOr<MinimizationReport> exact = MinimizePositiveQuery(schema_, query);
    ExpectSameRun(schema_, exact, StepByStep(schema_, query, false),
                  "MinimizePositiveQuery " + what);
    ExpectSameRun(schema_, verified, exact,
                  "general vs exact run of " + what);
    UnionQuery single;
    single.disjuncts.push_back(query);
    ExpectSameRun(schema_, MinimizePositiveUnion(schema_, single), exact,
                  "MinimizePositiveUnion " + what);
  }
  EXPECT_GT(general, 0);
  EXPECT_GT(folded, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizationProperty,
                         ::testing::Range(uint64_t{0}, uint64_t{10}));

}  // namespace
}  // namespace oocq
