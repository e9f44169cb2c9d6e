// Differential property suite pinning the compiled paths to the
// interpreters: for ≥1000 random (query, state) pairs the bytecode VM
// must produce exactly the answers and status codes of the tree walker —
// including the budget-exhaustion and cancellation legs, and with the
// corpus shown to exercise the reverse access paths (owner scans) — and
// the compiled Thm 3.1 subset scan must agree with the interpreted scan
// on random containment pairs, on the verdict and, for pairs built to
// refute with a nonempty membership subset W, on the whole decision
// record. Labeled `concurrency` so the TSan CI job runs it.

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "compile/compiler.h"
#include "core/containment.h"
#include "query/printer.h"
#include "query/well_formed.h"
#include "random_query.h"
#include "state/evaluation.h"
#include "state/generator.h"
#include "support/cancellation.h"
#include "test_util.h"

namespace oocq {
namespace {

using ::oocq::testing::GenerateRandomQuery;
using ::oocq::testing::MustParseSchema;
using ::oocq::testing::RandomQueryParams;

const char* const kSchema = R"(
schema Differential {
  class D { }
  class E under D { }
  class F under D { }
  class C { A: D; S: {D}; }
  class C1 under C { }
  class C2 under C { B: E; T: {E}; }
})";

RandomQueryParams FullParams() {
  RandomQueryParams params;
  params.max_vars = 3;
  params.max_extra_atoms = 4;
  params.allow_negative = true;
  params.terminal_only = true;
  params.use_constants = false;
  return params;
}

/// One compiled-vs-interpreted comparison.
void CompareOnce(const Schema& schema, const State& state,
                 const ConjunctiveQuery& query, uint64_t max_assignments) {
  EvalOptions interpreted;
  interpreted.enable_compilation = false;
  interpreted.max_assignments = max_assignments;
  EvalOptions compiled;
  compiled.enable_compilation = true;
  compiled.max_assignments = max_assignments;

  StatusOr<std::vector<Oid>> walker = Evaluate(state, query, interpreted);
  StatusOr<std::vector<Oid>> vm = Evaluate(state, query, compiled);
  ASSERT_EQ(walker.ok(), vm.ok())
      << QueryToString(schema, query) << "\nwalker: "
      << walker.status().ToString() << "\nvm: " << vm.status().ToString();
  if (walker.ok()) {
    EXPECT_EQ(*walker, *vm) << QueryToString(schema, query);
  } else {
    EXPECT_EQ(walker.status().code(), vm.status().code())
        << QueryToString(schema, query);
  }
}

/// Whether the compiled program of `query` binds some variable with `code`.
bool UsesGenerator(const Schema& schema, const ConjunctiveQuery& query,
                   compile::OpCode code) {
  StatusOr<compile::CompiledQuery> program =
      compile::CompileQuery(schema, query);
  if (!program.ok()) return false;
  for (const compile::Level& level : program->levels) {
    if (level.gen.code == code) return true;
  }
  return false;
}

TEST(CompileDifferentialTest, ThousandRandomPairsAgreeWithTreeWalker) {
  Schema schema = MustParseSchema(kSchema);
  std::mt19937_64 rng(20260808);
  RandomQueryParams params = FullParams();

  GeneratorParams state_params;
  state_params.objects_per_class = 5;

  // 20 random states × 100 well-formed random queries each: 2000
  // distinct (query, state) pairs (1000 left the set-owner count near
  // its floor once the generator emitted non-range atoms).
  int compared = 0;
  int ref_owner_programs = 0;
  int set_owner_programs = 0;
  for (uint64_t state_seed = 1; state_seed <= 20; ++state_seed) {
    state_params.seed = state_seed;
    State state = GenerateRandomState(schema, state_params);
    int in_state = 0;
    while (in_state < 100) {
      ConjunctiveQuery query = GenerateRandomQuery(schema, rng, params);
      if (!CheckWellFormed(schema, query).ok()) continue;
      CompareOnce(schema, state, query, /*max_assignments=*/100'000'000);
      if (::testing::Test::HasFatalFailure()) return;
      ref_owner_programs +=
          UsesGenerator(schema, query, compile::OpCode::kScanRefOwners);
      set_owner_programs +=
          UsesGenerator(schema, query, compile::OpCode::kScanSetOwners);
      ++in_state;
      ++compared;
    }
  }
  EXPECT_GE(compared, 1000);
  // The reverse access paths are exercised, not assumed.
  EXPECT_GE(ref_owner_programs, 20);
  EXPECT_GE(set_owner_programs, 20);
}

TEST(CompileDifferentialTest, NonTerminalRangesAgreeWithTreeWalker) {
  // Ranges over non-terminal classes and two-class disjunctions, four
  // variables: extents span several terminals, and an attribute's owner
  // postings span classes outside a variable's range.
  Schema schema = MustParseSchema(kSchema);
  std::mt19937_64 rng(50);
  RandomQueryParams params = FullParams();
  params.terminal_only = false;
  params.max_vars = 4;
  GeneratorParams state_params;
  state_params.objects_per_class = 6;
  for (uint64_t state_seed = 0; state_seed < 10; ++state_seed) {
    state_params.seed = state_seed;
    State state = GenerateRandomState(schema, state_params);
    for (int round = 0; round < 30; ++round) {
      CompareOnce(schema, state, GenerateRandomQuery(schema, rng, params),
                  /*max_assignments=*/100'000'000);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(CompileDifferentialTest, BudgetExhaustionStatusesAgree) {
  // Assignment-budget legs. At max_assignments = 0 the outcome is
  // order-independent — an empty candidate pool answers {} before any
  // charge on both paths, a nonempty one trips on the first binding — so
  // ok-ness and codes must agree exactly. At small nonzero budgets the
  // two paths enumerate in different orders and may legitimately trip at
  // different points; the invariant is weaker but still sharp: a failure
  // on either side is exactly kResourceExhausted, and whenever both
  // complete the answers are identical.
  Schema schema = MustParseSchema(kSchema);
  std::mt19937_64 rng(77);
  RandomQueryParams params = FullParams();
  GeneratorParams state_params;
  state_params.objects_per_class = 4;
  State state = GenerateRandomState(schema, state_params);

  int compared = 0;
  while (compared < 200) {
    ConjunctiveQuery query = GenerateRandomQuery(schema, rng, params);
    if (!CheckWellFormed(schema, query).ok()) continue;
    for (uint64_t budget : {uint64_t{0}, uint64_t{1}, uint64_t{7}}) {
      EvalOptions interpreted;
      interpreted.enable_compilation = false;
      interpreted.max_assignments = budget;
      EvalOptions compiled;
      compiled.enable_compilation = true;
      compiled.max_assignments = budget;
      StatusOr<std::vector<Oid>> walker = Evaluate(state, query, interpreted);
      StatusOr<std::vector<Oid>> vm = Evaluate(state, query, compiled);
      if (budget == 0) {
        ASSERT_EQ(walker.ok(), vm.ok()) << QueryToString(schema, query);
      }
      for (const StatusOr<std::vector<Oid>>* leg : {&walker, &vm}) {
        if (!leg->ok()) {
          EXPECT_EQ(leg->status().code(), StatusCode::kResourceExhausted)
              << QueryToString(schema, query) << " budget=" << budget;
        }
      }
      if (walker.ok() && vm.ok()) {
        EXPECT_EQ(*walker, *vm)
            << QueryToString(schema, query) << " budget=" << budget;
      }
    }
    ++compared;
  }
}

TEST(CompileDifferentialTest, PreTrippedCancellationAgrees) {
  Schema schema = MustParseSchema(kSchema);
  std::mt19937_64 rng(99);
  RandomQueryParams params = FullParams();
  GeneratorParams state_params;
  State state = GenerateRandomState(schema, state_params);

  CancellationToken expired = CancellationToken::AfterMillis(0);
  int compared = 0;
  while (compared < 50) {
    ConjunctiveQuery query = GenerateRandomQuery(schema, rng, params);
    if (!CheckWellFormed(schema, query).ok()) continue;
    for (bool compiled : {false, true}) {
      EvalOptions options;
      options.enable_compilation = compiled;
      options.cancel = &expired;
      StatusOr<std::vector<Oid>> result = Evaluate(state, query, options);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
      EXPECT_TRUE(IsRetryable(result.status().code()));
    }
    ++compared;
  }
}

TEST(CompileDifferentialTest, ContainmentVerdictsAgreeWithInterpretedScan) {
  // Random terminal pairs through Contained() with the compiled subset
  // scan on vs. off: verdicts and error codes must be identical. The
  // negative-atom pool makes a good fraction of the pairs exercise the
  // Thm 3.1 subset scan rather than the Cor 3.4 fast path.
  Schema schema = MustParseSchema(kSchema);
  std::mt19937_64 rng(4242);
  RandomQueryParams params = FullParams();

  int compared = 0;
  while (compared < 300) {
    ConjunctiveQuery q1 = GenerateRandomQuery(schema, rng, params);
    ConjunctiveQuery q2 = GenerateRandomQuery(schema, rng, params);
    if (!CheckWellFormed(schema, q1).ok()) continue;
    if (!CheckWellFormed(schema, q2).ok()) continue;

    ContainmentOptions interpreted;
    interpreted.enable_compilation = false;
    ContainmentOptions compiled;
    compiled.enable_compilation = true;
    StatusOr<bool> slow = Contained(schema, q1, q2, interpreted);
    StatusOr<bool> fast = Contained(schema, q1, q2, compiled);
    ASSERT_EQ(slow.ok(), fast.ok())
        << QueryToString(schema, q1) << " vs " << QueryToString(schema, q2)
        << "\ninterpreted: " << slow.status().ToString()
        << "\ncompiled: " << fast.status().ToString();
    if (slow.ok()) {
      EXPECT_EQ(*slow, *fast)
          << QueryToString(schema, q1) << " ⊆ " << QueryToString(schema, q2);
    } else {
      EXPECT_EQ(slow.status().code(), fast.status().code());
    }
    ++compared;
  }
}

/// Q1 & `x notin y.A` for a set term y.A of Q1 and a variable x other than
/// y whose class is under A's element type, or nullopt when Q1 has none.
/// Such a Q1 ⊆ Q2 is refuted by a state that puts x in y.A, so many of
/// these pairs refute only with a nonempty W (one in about 20,000
/// independent random pairs does).
std::optional<ConjunctiveQuery> WithNonMembership(const Schema& schema,
                                                  const ConjunctiveQuery& q1,
                                                  std::mt19937_64& rng) {
  std::vector<Atom> candidates;
  for (const Atom& atom : q1.atoms()) {
    if (atom.kind() != AtomKind::kMembership &&
        atom.kind() != AtomKind::kNonMembership) {
      continue;
    }
    const Term& set = atom.set_term();
    const TypeExpr* type =
        schema.FindAttribute(q1.RangeClassOf(set.var), set.attr);
    if (type == nullptr || !type->is_set()) continue;
    for (VarId x = 0; x < q1.num_vars(); ++x) {
      if (x == set.var) continue;
      if (schema.IsSubclassOf(q1.RangeClassOf(x), type->cls())) {
        candidates.push_back(Atom::NonMembership(x, set.var, set.attr));
      }
    }
  }
  if (candidates.empty()) return std::nullopt;
  ConjunctiveQuery q2 = q1;
  q2.AddAtom(candidates[std::uniform_int_distribution<size_t>(
      0, candidates.size() - 1)(rng)]);
  return q2;
}

TEST(CompileDifferentialTest, NonMembershipPairsReportTheOraclesDecision) {
  // Pairs Q1 ⊆ Q1 & `x notin y.A`: the compiled scan and the interpreted
  // oracle must agree on the verdict, the Thm 3.1 specialization, the
  // refuting S and W, and the subset counters.
  Schema schema = MustParseSchema(kSchema);
  std::mt19937_64 rng(2727);
  RandomQueryParams params = FullParams();

  int compared = 0;
  int refuted_with_w = 0;
  while (compared < 300) {
    ConjunctiveQuery q1 = GenerateRandomQuery(schema, rng, params);
    if (!CheckWellFormed(schema, q1).ok()) continue;
    std::optional<ConjunctiveQuery> q2 = WithNonMembership(schema, q1, rng);
    if (!q2.has_value() || !CheckWellFormed(schema, *q2).ok()) continue;
    const std::string what =
        QueryToString(schema, q1) + " vs " + QueryToString(schema, *q2);

    ContainmentOptions interpreted;
    interpreted.enable_compilation = false;
    ContainmentDecision oracle;
    ContainmentDecision scan;
    ContainmentStats oracle_stats;
    ContainmentStats scan_stats;
    StatusOr<bool> slow =
        Contained(schema, q1, *q2, interpreted, &oracle_stats, &oracle);
    StatusOr<bool> fast = Contained(schema, q1, *q2, {}, &scan_stats, &scan);
    ASSERT_EQ(slow.ok(), fast.ok()) << what;
    if (slow.ok()) {
      EXPECT_EQ(*slow, *fast) << what;
    } else {
      EXPECT_EQ(slow.status().code(), fast.status().code()) << what;
    }
    EXPECT_EQ(std::string(oracle.spec), std::string(scan.spec)) << what;
    EXPECT_EQ(oracle.refuting_s, scan.refuting_s) << what;
    EXPECT_EQ(oracle.refuting_w, scan.refuting_w) << what;
    EXPECT_EQ(oracle_stats.membership_subsets, scan_stats.membership_subsets)
        << what;
    EXPECT_EQ(oracle_stats.membership_subsets_skipped,
              scan_stats.membership_subsets_skipped)
        << what;
    if (!oracle.refuting_w.empty()) ++refuted_with_w;
    ++compared;
  }
  // 60 of these 300 refute with a nonempty W.
  EXPECT_GE(refuted_with_w, 40);
}

}  // namespace
}  // namespace oocq
