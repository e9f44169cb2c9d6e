// Unit tests for the query-compilation subsystem (src/compile/): program
// structure the compiler emits, VM semantics against the tree walker's
// 3-valued ground truth, budget/cancellation status parity, the compiled
// Thm 3.1 subset scan, and the session ProgramCache — including the
// never-memoize / never-persist contract for cancelled compiled scans
// (mirroring containment_cache_concurrency_test.cc).

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "compile/compiler.h"
#include "compile/mask_scan.h"
#include "compile/program.h"
#include "compile/program_cache.h"
#include "compile/vm.h"
#include "core/containment.h"
#include "core/containment_cache.h"
#include "core/derivability.h"
#include "core/prepared.h"
#include "query/printer.h"
#include "query/well_formed.h"
#include "state/evaluation.h"
#include "state/generator.h"
#include "support/cancellation.h"
#include "support/metrics.h"
#include "support/trace.h"
#include "chain_queries.h"
#include "random_query.h"
#include "test_util.h"

namespace oocq {
namespace {

using ::oocq::testing::MustParseQuery;
using ::oocq::testing::MustParseSchema;

compile::CompiledQuery MustCompile(const Schema& schema,
                                   const std::string& text) {
  ConjunctiveQuery query = MustParseQuery(schema, text);
  StatusOr<compile::CompiledQuery> program =
      compile::CompileQuery(schema, query);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return program.ok() ? *std::move(program) : compile::CompiledQuery{};
}

/// Compiled answers vs. the interpreted tree walker, which must agree.
std::vector<Oid> BothPaths(const Schema& schema, const State& state,
                           const std::string& text) {
  ConjunctiveQuery query = MustParseQuery(schema, text);
  EvalOptions interpreted;
  interpreted.enable_compilation = false;
  StatusOr<std::vector<Oid>> walker = Evaluate(state, query, interpreted);
  EXPECT_TRUE(walker.ok()) << walker.status().ToString();

  compile::CompiledQuery program = MustCompile(schema, text);
  StatusOr<std::vector<Oid>> vm = compile::ExecuteCompiled(program, state);
  EXPECT_TRUE(vm.ok()) << vm.status().ToString();
  EXPECT_EQ(*walker, *vm) << "compiled/interpreted divergence on " << text;
  return vm.ok() ? *vm : std::vector<Oid>{};
}

class CompileTest : public ::testing::Test {
 protected:
  CompileTest() : state_(&schema_) {
    c_ = schema_.FindClass("C").value();
    e_ = schema_.FindClass("E").value();
    f_ = schema_.FindClass("F").value();
  }

  Schema schema_ = MustParseSchema(R"(
schema Eval {
  class D { }
  class E under D { }
  class F under D { }
  class C { A: D; S: {D}; }
})");
  State state_;
  ClassId c_, e_, f_;
};

// ---- Program structure -------------------------------------------------

TEST_F(CompileTest, OneLevelPerVariableAndEmit) {
  compile::CompiledQuery program =
      MustCompile(schema_, "{ x | exists u (x in C & u in E & u = x.A) }");
  EXPECT_EQ(program.num_vars, 2u);
  ASSERT_EQ(program.levels.size(), 2u);
  std::string listing = program.DebugString();
  EXPECT_NE(listing.find("scan_extent"), std::string::npos) << listing;
  EXPECT_NE(listing.find("emit"), std::string::npos) << listing;
}

TEST_F(CompileTest, EqualityAttributeBecomesBindFromSlot) {
  // u = x.A: once x is bound, u has exactly one candidate — the compiler
  // must emit a bind generator, not a scan + filter.
  compile::CompiledQuery program =
      MustCompile(schema_, "{ x | exists u (x in C & u in E & u = x.A) }");
  bool has_bind = false;
  for (const compile::Level& level : program.levels) {
    if (level.gen.code == compile::OpCode::kBindFromSlotRef) has_bind = true;
  }
  EXPECT_TRUE(has_bind) << program.DebugString();
}

TEST_F(CompileTest, MembershipBecomesSetMemberScan) {
  compile::CompiledQuery program =
      MustCompile(schema_, "{ x | exists u (x in C & u in E & u in x.S) }");
  bool has_set_scan = false;
  for (const compile::Level& level : program.levels) {
    if (level.gen.code == compile::OpCode::kScanSetMembers) {
      has_set_scan = true;
    }
  }
  EXPECT_TRUE(has_set_scan) << program.DebugString();
}

TEST_F(CompileTest, SlotLoadsAreHoistedOncePerOwner) {
  // Two tests dereference x.A; the program must load the slot once.
  compile::CompiledQuery program = MustCompile(
      schema_,
      "{ x | exists u exists w (x in C & u in E & w in F & u = x.A "
      "& w != x.A) }");
  size_t loads = 0;
  for (const compile::Level& level : program.levels) {
    loads += level.loads.size();
  }
  EXPECT_EQ(program.slots.size(), 1u) << program.DebugString();
  EXPECT_EQ(loads, 1u) << program.DebugString();
}

// A plan depends on (schema, query) alone: running it leaves nothing
// that a later compile reads. Here y binds from x.B, so its class test
// always passes and its membership test mostly fails; the static order
// keeps the class test first however often the program ran.
TEST(CompilePlanTest, PlanDependsOnTheQueryAlone) {
  Schema schema = MustParseSchema(R"(
schema Differential {
  class D { }
  class E under D { }
  class F under D { }
  class C { A: D; S: {D}; }
  class C1 under C { }
  class C2 under C { B: E; T: {E}; }
})");
  const std::string text =
      "{ x | exists y (x in C2 & y in E & y = x.B & y in x.T) }";
  const std::string plan = MustCompile(schema, text).DebugString();
  EXPECT_LT(plan.find("test_class"), plan.find("test_member")) << plan;

  GeneratorParams params;
  params.objects_per_class = 20;
  State state = GenerateRandomState(schema, params);
  ConjunctiveQuery query = MustParseQuery(schema, text);
  MetricsRegistry metrics;
  MetricsScope scope(&metrics);
  ASSERT_TRUE(scope.active());
  for (int run = 0; run < 300; ++run) {
    OOCQ_ASSERT_OK(Evaluate(state, query).status());
  }
  EXPECT_EQ(metrics.CounterValue("compile/execs"), 300u);
  EXPECT_EQ(MustCompile(schema, text).DebugString(), plan);
}

// ---- VM semantics vs. the tree walker ---------------------------------

TEST_F(CompileTest, VmMatchesWalkerOnNullSemantics) {
  Oid c1 = *state_.AddObject(c_);
  Oid c2 = *state_.AddObject(c_);
  Oid e1 = *state_.AddObject(e_);
  *state_.AddObject(f_);
  // c1.A = e1, c1.S = {e1}; c2 all-null.
  OOCQ_ASSERT_OK(state_.SetAttribute(c1, "A", Value::Ref(e1)));
  OOCQ_ASSERT_OK(state_.SetAttribute(c1, "S", Value::Set({e1})));
  (void)c2;

  // Ex 3.1: null A is unknown, not false.
  EXPECT_EQ(BothPaths(schema_, state_,
                      "{ x | exists u (x in C & u in E & u = x.A) }"),
            (std::vector<Oid>{c1}));
  // Ex 3.3: null S makes notin unknown; e1 ∈ c1.S makes it false.
  EXPECT_TRUE(BothPaths(schema_, state_,
                        "{ x | exists u (x in C & u in E & u notin x.S) }")
                  .empty());
  // Membership through the set slot.
  EXPECT_EQ(BothPaths(schema_, state_,
                      "{ x | exists u (x in C & u in E & u in x.S) }"),
            (std::vector<Oid>{c1}));
  // Non-range atoms.
  BothPaths(schema_, state_, "{ x | x in D & x notin F }");
  // Inequality with an unknown operand fails.
  BothPaths(schema_, state_, "{ x | exists u (x in C & u in E & x.A != u) }");
}

TEST_F(CompileTest, ConstantAtomsMatchInternedPayloadsExactly) {
  Schema schema = MustParseSchema(R"(
schema K { class C { N: Int; } })");
  State state(&schema);
  ClassId c = schema.FindClass("C").value();
  Oid c1 = *state.AddObject(c);
  Oid c2 = *state.AddObject(c);
  Oid three = state.InternInt(3);
  OOCQ_ASSERT_OK(state.SetAttribute(c1, "N", Value::Ref(three)));
  OOCQ_ASSERT_OK(state.SetAttribute(c2, "N", Value::Ref(state.InternInt(4))));

  ConjunctiveQuery query =
      MustParseQuery(schema, "{ x | x in C & x.N = 3 }");
  EvalOptions interpreted;
  interpreted.enable_compilation = false;
  StatusOr<std::vector<Oid>> walker = Evaluate(state, query, interpreted);
  ASSERT_TRUE(walker.ok());
  StatusOr<compile::CompiledQuery> program =
      compile::CompileQuery(schema, query);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  StatusOr<std::vector<Oid>> vm = compile::ExecuteCompiled(*program, state);
  ASSERT_TRUE(vm.ok());
  EXPECT_EQ(*walker, *vm);
  EXPECT_EQ(vm->size(), 1u);
}

// ---- Status parity: budgets and cancellation --------------------------

TEST_F(CompileTest, MaxAssignmentsTripsOnBothPaths) {
  for (int i = 0; i < 8; ++i) *state_.AddObject(e_);
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ x | exists y exists z (x in E & y in E & z in E) }");
  EvalOptions options;
  options.max_assignments = 10;  // 8^3 bindings in any order exceed this
  options.enable_compilation = false;
  StatusOr<std::vector<Oid>> walker = Evaluate(state_, query, options);
  ASSERT_FALSE(walker.ok());
  EXPECT_EQ(walker.status().code(), StatusCode::kResourceExhausted);

  options.enable_compilation = true;
  StatusOr<std::vector<Oid>> vm = Evaluate(state_, query, options);
  ASSERT_FALSE(vm.ok());
  EXPECT_EQ(vm.status().code(), walker.status().code());
  EXPECT_EQ(vm.status().message(), walker.status().message());
}

TEST_F(CompileTest, EmptyPoolAnswersBeforeChargingTheBudget) {
  // No E objects at all: the walker returns {} before trying a binding,
  // even under max_assignments = 0. The VM must do the same.
  *state_.AddObject(c_);
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ x | exists u (x in C & u in E) }");
  EvalOptions options;
  options.max_assignments = 0;
  for (bool compiled : {false, true}) {
    options.enable_compilation = compiled;
    StatusOr<std::vector<Oid>> result = Evaluate(state_, query, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->empty());
  }
}

TEST_F(CompileTest, CancelledExecutionIsRetryableDeadlineExceeded) {
  *state_.AddObject(e_);
  compile::CompiledQuery program = MustCompile(schema_, "{ x | x in E }");
  CancellationToken expired = CancellationToken::AfterMillis(0);
  compile::ExecOptions options;
  options.cancel = &expired;
  StatusOr<std::vector<Oid>> result =
      compile::ExecuteCompiled(program, state_, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(IsRetryable(result.status().code()));
}

// ---- Reverse access paths: owner scans ---------------------------------

const char* const kFleetSchema = R"(
schema Fleet {
  class Vehicle { Owner: Client; }
  class Auto under Vehicle { }
  class Truck under Vehicle { }
  class Client { Rented: {Vehicle}; }
  class Regular under Client { }
  class Premium under Client { }
})";

/// The two reverse-join shapes of the wire benchmark's eval_join
/// workload: the free variable binds before the vehicle that owns it.
const char* const kReverseJoin =
    "{ c | exists v (c in Client & v in Vehicle & c = v.Owner) }";
const char* const kReverseJoinRented =
    "{ c | exists v exists w (c in Client & v in Vehicle & w in Vehicle & "
    "c = v.Owner & w in c.Rented) }";

class OwnerScanTest : public ::testing::Test {
 protected:
  ClassId Cls(const char* name) { return schema_.FindClass(name).value(); }

  /// Two clients, one vehicle of each terminal class; the truck belongs
  /// to `premium`, the auto to `regular`, the second auto to nobody (Λ).
  void Populate() {
    regular_ = *state_.AddObject(Cls("Regular"));
    premium_ = *state_.AddObject(Cls("Premium"));
    auto1_ = *state_.AddObject(Cls("Auto"));
    auto2_ = *state_.AddObject(Cls("Auto"));
    truck_ = *state_.AddObject(Cls("Truck"));
    OOCQ_ASSERT_OK(state_.SetAttribute(auto1_, "Owner", Value::Ref(regular_)));
    OOCQ_ASSERT_OK(state_.SetAttribute(truck_, "Owner", Value::Ref(premium_)));
    OOCQ_ASSERT_OK(
        state_.SetAttribute(regular_, "Rented", Value::Set({auto1_, truck_})));
    OOCQ_ASSERT_OK(state_.SetAttribute(premium_, "Rented", Value::Set({})));
  }

  Schema schema_ = MustParseSchema(kFleetSchema);
  State state_{&schema_};
  Oid regular_ = kInvalidOid, premium_ = kInvalidOid;
  Oid auto1_ = kInvalidOid, auto2_ = kInvalidOid, truck_ = kInvalidOid;
};

TEST_F(OwnerScanTest, ReverseJoinPlans) {
  // The client binds first; the vehicle comes from the Owner postings of
  // the bound client and keeps its range atom as a class test.
  EXPECT_EQ(MustCompile(schema_, kReverseJoin).DebugString(),
            "program vars=2 free=v0 slots=0\n"
            "L0: scan_extent v0 c6\n"
            "L1: scan_ref_owners v1 v0 .Owner\n"
            "    test_class v1 c3\n"
            "    emit v0\n");
  EXPECT_EQ(MustCompile(schema_, kReverseJoinRented).DebugString(),
            "program vars=3 free=v0 slots=1\n"
            "  slot s0 = v0.Rented\n"
            "L0: scan_extent v0 c6\n"
            "    load_slot s0\n"
            "L1: scan_ref_owners v1 v0 .Owner\n"
            "    test_class v1 c3\n"
            "L2: scan_set_members v2 v0 s0\n"
            "    test_class v2 c3\n"
            "    emit v0\n");
}

TEST_F(OwnerScanTest, MembershipWithBoundElementScansSetOwners) {
  compile::CompiledQuery program = MustCompile(
      schema_, "{ v | exists c (v in Vehicle & c in Client & v in c.Rented) }");
  ASSERT_EQ(program.levels.size(), 2u);
  EXPECT_EQ(program.levels[1].gen.code, compile::OpCode::kScanSetOwners)
      << program.DebugString();
}

TEST_F(OwnerScanTest, OwnerScansMatchWalker) {
  Populate();
  EXPECT_EQ(BothPaths(schema_, state_, kReverseJoin),
            (std::vector<Oid>{regular_, premium_}));
  EXPECT_EQ(BothPaths(schema_, state_, kReverseJoinRented),
            (std::vector<Oid>{regular_}));
  // Set owners: the vehicles somebody rents.
  EXPECT_EQ(BothPaths(schema_, state_,
                      "{ v | exists c (v in Vehicle & c in Client & "
                      "v in c.Rented) }"),
            (std::vector<Oid>{auto1_, truck_}));
  // The key is a ref slot (v.Owner = w.Owner with v bound first); the Λ
  // Owner of auto2 yields no owners rather than matching other Λs.
  EXPECT_EQ(BothPaths(schema_, state_,
                      "{ v | exists w (v in Vehicle & w in Vehicle & "
                      "v.Owner = w.Owner) }"),
            (std::vector<Oid>{auto1_, truck_}));
}

TEST_F(OwnerScanTest, OwnerSharedByAnOutOfRangeTerminalIsFiltered) {
  // Auto and Truck share the Owner postings; only Auto is in range, so
  // premium (who owns just the truck) must not answer.
  Populate();
  EXPECT_EQ(BothPaths(schema_, state_,
                      "{ c | exists v (c in Client & v in Auto & "
                      "c = v.Owner) }"),
            (std::vector<Oid>{regular_}));
}

TEST_F(OwnerScanTest, SetSlotUnderEqualityHasNoRefOwners) {
  // A set-valued slot is unknown under `=`: Rented holds sets, so no
  // vehicle is "equal" to c.Rented and the ref postings of Rented are
  // empty.
  Populate();
  EXPECT_TRUE(BothPaths(schema_, state_,
                        "{ v | exists c (v in Vehicle & c in Client & "
                        "v = c.Rented) }")
                  .empty());
}

TEST_F(OwnerScanTest, MutationAfterFirstEvaluationRebuildsTheIndex) {
  Populate();
  MetricsRegistry metrics;
  MetricsScope scope(&metrics);
  EXPECT_EQ(BothPaths(schema_, state_, kReverseJoin),
            (std::vector<Oid>{regular_, premium_}));
  // auto2 gains an owner and a new client appears: the next execution
  // must see both, through a rebuilt index.
  Oid late = *state_.AddObject(Cls("Premium"));
  OOCQ_ASSERT_OK(state_.SetAttribute(auto2_, "Owner", Value::Ref(late)));
  OOCQ_ASSERT_OK(state_.SetAttribute(truck_, "Owner", Value::Null()));
  EXPECT_EQ(BothPaths(schema_, state_, kReverseJoin),
            (std::vector<Oid>{regular_, late}));
  if (scope.active()) {
    EXPECT_EQ(metrics.CounterValue("state/index_builds"), 2u);
  }
}

// ---- The compiled Thm 3.1 subset scan ---------------------------------

using ::oocq::testing::ChainQ1;
using ::oocq::testing::ChainQ2;
using ::oocq::testing::ChainSchemaText;
using ::oocq::testing::HeavyQ1;
using ::oocq::testing::HeavyQ2;
using ::oocq::testing::HeavySchemaText;

TEST_F(CompileTest, CompiledSubsetScanMatchesInterpretedVerdictAndTotals) {
  for (int k : {2, 4, 8, 12}) {
    Schema schema = MustParseSchema(HeavySchemaText(k));
    ConjunctiveQuery q1 = MustParseQuery(schema, HeavyQ1(k));
    ConjunctiveQuery q2 = MustParseQuery(schema, HeavyQ2());

    ContainmentOptions interpreted;
    interpreted.enable_compilation = false;
    ContainmentStats interpreted_stats;
    StatusOr<bool> slow =
        Contained(schema, q1, q2, interpreted, &interpreted_stats);
    ASSERT_TRUE(slow.ok()) << slow.status().ToString();

    ContainmentOptions compiled;
    compiled.enable_compilation = true;
    ContainmentStats compiled_stats;
    StatusOr<bool> fast = Contained(schema, q1, q2, compiled, &compiled_stats);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();

    EXPECT_EQ(*slow, *fast) << "k=" << k;
    // Tested + skipped is the full enumeration asked for — identical on
    // both paths even though the compiled scan never ran per-mask
    // mapping searches.
    EXPECT_EQ(interpreted_stats.membership_subsets +
                  interpreted_stats.membership_subsets_skipped,
              compiled_stats.membership_subsets +
                  compiled_stats.membership_subsets_skipped)
        << "k=" << k;
  }
}

// Thm 3.1's pool is read off one analysis of Q1 (QueryAnalysis::
// NotContradictsMembership) and the compiled scan reuses that analysis,
// so the Thm 2.2 work of a Cor 3.2 decision does not grow with |T|: two
// checks per operand (its verdict and the one inside its normalization)
// and one for Q1's analysis, nothing per candidate.
TEST(ContainmentWorkTest, MembershipPoolCostsNoSatisfiabilityChecks) {
  for (uint64_t t : {2, 8, 16}) {
    const int k = static_cast<int>(t) + 1;  // x notin y.S0 keeps S0 out of T
    Schema schema = MustParseSchema(HeavySchemaText(k));
    ConjunctiveQuery q1 = MustParseQuery(schema, HeavyQ1(k));
    ConjunctiveQuery q2 = MustParseQuery(schema, HeavyQ2());
    MetricsRegistry registry;
    ContainmentDecision decision;
    {
      MetricsScope scope(&registry);
      ASSERT_TRUE(scope.active());
      StatusOr<bool> contained =
          Contained(schema, q1, q2, {}, nullptr, &decision);
      OOCQ_ASSERT_OK(contained.status());
      EXPECT_TRUE(*contained);
    }
    EXPECT_STREQ(decision.spec, "Cor3.2");
    EXPECT_EQ(registry.Histogram("containment/pool_size")->max(), t);
    EXPECT_EQ(registry.CounterValue("compile/mask_scans"), 1u);
    EXPECT_EQ(registry.CounterValue("satisfiability/checks"), 5u)
        << "|T| = " << t;
  }
}

TEST_F(CompileTest, CompiledSubsetScanHonorsBudgetWithRetryableStatus) {
  const int k = 20;
  Schema schema = MustParseSchema(HeavySchemaText(k));
  ConjunctiveQuery q1 = MustParseQuery(schema, HeavyQ1(k));
  ConjunctiveQuery q2 = MustParseQuery(schema, HeavyQ2());

  ResourceLimits limits;
  limits.max_subset_work_units = 1 << 10;
  ResourceBudget budget(limits);
  ContainmentOptions options;
  options.budget = &budget;
  StatusOr<bool> refused = Contained(schema, q1, q2, options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(IsRetryable(refused.status().code()));
}

// A cancelled compiled scan surfaces the token's retryable status and is
// neither memoized nor persisted: the mirror of the never-memoize tests
// in containment_cache_concurrency_test.cc, through the compiled path.
TEST_F(CompileTest, CancelledCompiledScanNeverMemoizedNeverPersisted) {
  const int k = 12;
  Schema schema = MustParseSchema(HeavySchemaText(k));
  ConjunctiveQuery q1 = MustParseQuery(schema, HeavyQ1(k));
  ConjunctiveQuery q2 = MustParseQuery(schema, HeavyQ2());

  ContainmentCache cache(&schema);
  CancellationToken expired = CancellationToken::AfterMillis(0);
  StatusOr<bool> cancelled = cache.Contained(q1, q2, nullptr, &expired);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(IsRetryable(cancelled.status().code()));

  // Never memoized: the error is not resident, and Export() (what the
  // durable catalog snapshots) carries nothing for the pair.
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.Export(0).empty());

  // The retry the status promised recomputes and succeeds.
  StatusOr<bool> retried = cache.Contained(q1, q2);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
}

// ---- The cofactor coverage check and the scan's refusals --------------

/// Brute force over the 2^t masks: the smallest no signature covers.
std::optional<uint64_t> BruteForceUncovered(
    const std::vector<compile::MaskSignature>& signatures, size_t t) {
  for (uint64_t w = 0; w < (uint64_t{1} << t); ++w) {
    bool covered = false;
    for (const compile::MaskSignature& s : signatures) {
      if ((w & s.required) == s.required && (w & s.forbidden) == 0) {
        covered = true;
        break;
      }
    }
    if (!covered) return w;
  }
  return std::nullopt;
}

TEST(SmallestUncoveredMaskTest, AgreesWithBruteForceOnRandomSignatureSets) {
  std::mt19937_64 rng(20261020);
  int covered = 0;
  int refuted = 0;
  for (int round = 0; round < 3000; ++round) {
    const size_t t = std::uniform_int_distribution<size_t>(0, 12)(rng);
    const size_t count = std::uniform_int_distribution<size_t>(0, 64)(rng);
    // Per-set density: sparse sets cover much, dense ones little.
    const double p = std::uniform_real_distribution<double>(0.02, 0.4)(rng);
    std::bernoulli_distribution asks(p);
    std::bernoulli_distribution half(0.5);
    std::vector<compile::MaskSignature> signatures(count);
    for (compile::MaskSignature& s : signatures) {
      for (size_t bit = 0; bit < t; ++bit) {
        if (!asks(rng)) continue;
        (half(rng) ? s.required : s.forbidden) |= uint64_t{1} << bit;
      }
    }
    // Now and then a signature that requires and forbids one bit, as the
    // enumeration never hands over: it must cover nothing.
    if (count > 0 && t > 0 && round % 17 == 0) {
      signatures[0].required |= 1;
      signatures[0].forbidden |= 1;
    }
    StatusOr<std::optional<uint64_t>> cofactor =
        compile::SmallestUncoveredMask(signatures, /*cancel=*/nullptr);
    OOCQ_ASSERT_OK(cofactor.status());
    const std::optional<uint64_t> expected = BruteForceUncovered(signatures, t);
    ASSERT_EQ(*cofactor, expected) << "round " << round << " |T|=" << t
                                   << " signatures=" << count;
    (expected.has_value() ? refuted : covered) += 1;
  }
  EXPECT_GE(covered, 300);
  EXPECT_GE(refuted, 300);
}

TEST(SmallestUncoveredMaskTest, AllCoveringSignatureAndCancellation) {
  // One signature asking nothing of W decides at the root.
  StatusOr<std::optional<uint64_t>> all =
      compile::SmallestUncoveredMask({{0b10, 0}, {0, 0}}, nullptr);
  OOCQ_ASSERT_OK(all.status());
  EXPECT_FALSE(all->has_value());
  // No signature at all: W = ∅ is already uncovered.
  StatusOr<std::optional<uint64_t>> none =
      compile::SmallestUncoveredMask({}, nullptr);
  OOCQ_ASSERT_OK(none.status());
  EXPECT_EQ(*none, std::optional<uint64_t>(0));
  CancellationToken expired = CancellationToken::AfterMillis(0);
  StatusOr<std::optional<uint64_t>> cancelled =
      compile::SmallestUncoveredMask({{0b1, 0}, {0, 0b1}}, &expired);
  EXPECT_EQ(cancelled.status().code(), StatusCode::kDeadlineExceeded);
}

/// The refutation record and subset totals of one Contained() call.
struct DecisionTrace {
  Status status = Status::Ok();
  bool contained = false;
  std::vector<std::string> refuting_s;
  std::vector<std::string> refuting_w;
  uint64_t subsets_enumerated = 0;
};

DecisionTrace Decide(const Schema& schema, const PreparedDisjunct& q1,
                     const PreparedDisjunct& q2, bool compiled,
                     uint64_t max_mapping_steps = 10'000'000) {
  ContainmentOptions options;
  options.enable_compilation = compiled;
  options.max_mapping_steps = max_mapping_steps;
  ContainmentStats stats;
  ContainmentDecision decision;
  StatusOr<bool> verdict =
      Contained(schema, q1, q2, options, &stats, &decision);
  DecisionTrace trace;
  trace.status = verdict.status();
  trace.contained = verdict.ok() && *verdict;
  for (const Atom& atom : decision.refuting_s) {
    trace.refuting_s.push_back(AtomToString(schema, q1.normalized(), atom));
  }
  for (const Atom& atom : decision.refuting_w) {
    trace.refuting_w.push_back(AtomToString(schema, q1.normalized(), atom));
  }
  trace.subsets_enumerated =
      stats.membership_subsets + stats.membership_subsets_skipped;
  return trace;
}

void ExpectSameDecision(const DecisionTrace& compiled,
                        const DecisionTrace& oracle, const std::string& what) {
  EXPECT_EQ(compiled.status.code(), oracle.status.code()) << what;
  EXPECT_EQ(compiled.contained, oracle.contained) << what;
  EXPECT_EQ(compiled.refuting_s, oracle.refuting_s) << what;
  EXPECT_EQ(compiled.refuting_w, oracle.refuting_w) << what;
  EXPECT_EQ(compiled.subsets_enumerated, oracle.subsets_enumerated) << what;
}

/// A pair built to refute with a nonempty W: Q1 gains `u in y.S`, and Q2
/// is Q1 with some non-range atoms dropped plus `x notin y'.S`, over
/// random element variables u, x and set owners y, y' of Q1. Nullopt when
/// Q1 has no element or no owner variable.
std::optional<std::pair<ConjunctiveQuery, ConjunctiveQuery>> SetTermPair(
    const Schema& schema, ConjunctiveQuery q1, std::mt19937_64& rng) {
  std::vector<VarId> elements;
  std::vector<VarId> owners;
  for (VarId v = 0; v < q1.num_vars(); ++v) {
    const std::string& cls = schema.class_name(q1.RangeClassOf(v));
    if (cls == "E" || cls == "F") elements.push_back(v);
    if (cls == "C1" || cls == "C2") owners.push_back(v);
  }
  if (elements.empty() || owners.empty()) return std::nullopt;
  auto pick = [&rng](const std::vector<VarId>& from) {
    return from[std::uniform_int_distribution<size_t>(0, from.size() - 1)(
        rng)];
  };
  ConjunctiveQuery q2 = q1;
  std::bernoulli_distribution drop(0.5);
  std::erase_if(q2.mutable_atoms(), [&](const Atom& atom) {
    return atom.kind() != AtomKind::kRange && drop(rng);
  });
  q1.AddAtom(Atom::Membership(pick(elements), pick(owners), "S"));
  q2.AddAtom(Atom::NonMembership(pick(elements), pick(owners), "S"));
  return std::make_pair(std::move(q1), std::move(q2));
}

// Random terminal pairs with negative atoms: the compiled scan and the
// per-mask oracle report the same refuting configuration Q1&S&W and
// enumerate the same number of subsets. Half the pairs are independent;
// half are SetTermPairs, so that many refutations need a nonempty W.
TEST(CompiledScanOracleTest, RandomPairsReportTheOraclesRefutation) {
  Schema schema = MustParseSchema(R"(
schema Differential {
  class D { }
  class E under D { }
  class F under D { }
  class C { A: D; S: {D}; }
  class C1 under C { }
  class C2 under C { B: E; T: {E}; }
})");
  std::mt19937_64 rng(26);
  ::oocq::testing::RandomQueryParams params;
  params.max_vars = 4;
  params.max_extra_atoms = 5;
  params.allow_negative = true;
  int compared = 0;
  int refuted_with_w = 0;
  for (int round = 0; compared < 2000; ++round) {
    ConjunctiveQuery q1 =
        ::oocq::testing::GenerateRandomQuery(schema, rng, params);
    ConjunctiveQuery q2 =
        ::oocq::testing::GenerateRandomQuery(schema, rng, params);
    if (round % 2 == 1) {
      auto pair = SetTermPair(schema, q1, rng);
      if (!pair.has_value()) continue;
      std::tie(q1, q2) = *std::move(pair);
    }
    if (!CheckWellFormed(schema, q1).ok()) continue;
    if (!CheckWellFormed(schema, q2).ok()) continue;
    const PreparedDisjunct p1(schema, q1);
    const PreparedDisjunct p2(schema, q2);
    const DecisionTrace compiled = Decide(schema, p1, p2, true);
    const DecisionTrace oracle = Decide(schema, p1, p2, false);
    ExpectSameDecision(compiled, oracle,
                       QueryToString(schema, q1) + " vs " +
                           QueryToString(schema, q2));
    if (!oracle.refuting_w.empty()) ++refuted_with_w;
    ++compared;
  }
  EXPECT_GE(refuted_with_w, 50);
}

TEST(CompiledScanOracleTest, ManySignaturesDecideAndAgreeWithTheOracle) {
  // chain_queries.h's shape. At m = 3 (|T| = 6 or 7, 27 signatures) the
  // oracle is cheap: both verdicts, refutations and subset totals must
  // agree.
  for (bool open_last : {false, true}) {
    Schema schema = MustParseSchema(ChainSchemaText(3));
    const PreparedDisjunct q1(schema,
                              MustParseQuery(schema, ChainQ1(3, open_last)));
    const PreparedDisjunct q2(schema, MustParseQuery(schema, ChainQ2(3)));
    const DecisionTrace compiled = Decide(schema, q1, q2, true);
    const DecisionTrace oracle = Decide(schema, q1, q2, false);
    ExpectSameDecision(compiled, oracle, open_last ? "open" : "closed");
    EXPECT_EQ(compiled.contained, !open_last);
  }
  // At m = 8 the scan keeps 3^8 = 6,561 signatures over |T| = 16
  // and decides: the closed chains are contained, the open one is not.
  for (bool open_last : {false, true}) {
    Schema schema = MustParseSchema(ChainSchemaText(8));
    ConjunctiveQuery q1 = MustParseQuery(schema, ChainQ1(8, open_last));
    ConjunctiveQuery q2 = MustParseQuery(schema, ChainQ2(8));
    ContainmentStats stats;
    ThreadSpanCapture capture;
    StatusOr<bool> verdict = Contained(schema, q1, q2, {}, &stats);
    OOCQ_ASSERT_OK(verdict.status());
    EXPECT_EQ(*verdict, !open_last);
    EXPECT_EQ(stats.mapping_searches, 1u);
    EXPECT_EQ(stats.membership_subsets + stats.membership_subsets_skipped,
              uint64_t{1} << (open_last ? 17 : 16));
    for (const CapturedSpan& span : capture.spans()) {
      if (span.name != "CompiledMaskScan") continue;
      for (const auto& [key, value] : span.args) {
        if (key == "signatures") {
          EXPECT_EQ(value, "6561");
        }
      }
    }
  }
}

TEST(CompiledScanOracleTest, MappingStepCapIsResourceExhausted) {
  Schema schema = MustParseSchema(ChainSchemaText(3));
  const PreparedDisjunct q1(schema,
                            MustParseQuery(schema, ChainQ1(3, false)));
  const PreparedDisjunct q2(schema, MustParseQuery(schema, ChainQ2(3)));
  const DecisionTrace compiled = Decide(schema, q1, q2, true, 10);
  EXPECT_EQ(compiled.status.code(), StatusCode::kResourceExhausted)
      << compiled.status.ToString();
  EXPECT_EQ(Decide(schema, q1, q2, false, 10).status.code(),
            StatusCode::kResourceExhausted);
}

TEST(CompiledScanOracleTest, PoolAtomsSharingAnEntryAreInternal) {
  Schema schema = MustParseSchema(HeavySchemaText(2));
  ConjunctiveQuery base = MustParseQuery(
      schema, "{ x | exists y (x in D & y in C & x notin y.S0) }");
  StatusOr<QueryAnalysis> analysis = QueryAnalysis::Create(schema, base);
  OOCQ_ASSERT_OK(analysis.status());
  // x is variable 0 and y variable 1: x in y.S1, twice.
  const std::vector<Atom> pool = {Atom::Membership(0, 1, "S1"),
                                  Atom::Membership(0, 1, "S1")};
  compile::MaskScanResult scan = compile::RunCompiledMaskScan(
      schema, *analysis, pool, MustParseQuery(schema, HeavyQ2()), {},
      nullptr, nullptr);
  EXPECT_EQ(scan.error.code(), StatusCode::kInternal)
      << scan.error.ToString();
  EXPECT_EQ(scan.masks_tested, 0u);
}

// ---- ProgramCache ------------------------------------------------------

TEST_F(CompileTest, ProgramCacheComputesOnceAndReturnsStableAddress) {
  compile::ProgramCache cache;
  ConjunctiveQuery query = MustParseQuery(schema_, "{ x | x in E }");
  const compile::CompiledQuery* first = cache.GetOrCompile(schema_, query);
  ASSERT_NE(first, nullptr);
  const compile::CompiledQuery* second = cache.GetOrCompile(schema_, query);
  EXPECT_EQ(first, second);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(CompileTest, LargeQueriesRunOnTheVm) {
  // 4,097 variables, one past 2^12: every well-formed query compiles,
  // whatever its size, and Evaluate answers it on the VM.
  Oid e1 = *state_.AddObject(e_);
  *state_.AddObject(f_);
  ConjunctiveQuery big;
  for (int v = 0; v < 4097; ++v) {
    big.AddVariable(std::string("v").append(std::to_string(v)));
    big.AddAtom(Atom::Range(static_cast<VarId>(v), {e_}));
  }
  big.set_free_var(0);
  OOCQ_ASSERT_OK(CheckWellFormed(schema_, big));

  compile::ProgramCache cache;
  const compile::CompiledQuery* program = cache.GetOrCompile(schema_, big);
  ASSERT_NE(program, nullptr);
  EXPECT_EQ(program->levels.size(), 4097u);

  MetricsRegistry metrics;
  MetricsScope scope(&metrics);
  ASSERT_TRUE(scope.active());
  EvalOptions compiled;
  compiled.program = program;
  StatusOr<std::vector<Oid>> vm = Evaluate(state_, big, compiled);
  OOCQ_ASSERT_OK(vm.status());
  EXPECT_EQ(metrics.CounterValue("compile/execs"), 1u);

  // Declaration order keeps the walker's reference run linear.
  EvalOptions walker;
  walker.enable_compilation = false;
  walker.reorder_variables = false;
  StatusOr<std::vector<Oid>> reference = Evaluate(state_, big, walker);
  OOCQ_ASSERT_OK(reference.status());
  EXPECT_EQ(*vm, *reference);
  EXPECT_EQ(*vm, (std::vector<Oid>{e1}));
}

TEST_F(CompileTest, ProgramCacheClearDropsEntries) {
  compile::ProgramCache cache;
  ConjunctiveQuery query = MustParseQuery(schema_, "{ x | x in E }");
  ASSERT_NE(cache.GetOrCompile(schema_, query), nullptr);
  EXPECT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_NE(cache.GetOrCompile(schema_, query), nullptr);
}

}  // namespace
}  // namespace oocq
