// Unit tests for the object store: object creation, attribute slots,
// primitive interning, extents, legal-state validation, and the state's
// lazily built access paths (state/index.h) — including concurrent first
// builds, so the binary is labelled `concurrency` for the TSan job.

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <span>
#include <thread>

#include "parser/state_parser.h"
#include "state/evaluation.h"
#include "state/generator.h"
#include "state/index.h"
#include "state/state.h"
#include "support/metrics.h"
#include "test_util.h"

namespace oocq {
namespace {

using ::oocq::testing::MustParseQuery;
using ::oocq::testing::MustParseSchema;

class StateTest : public ::testing::Test {
 protected:
  Schema schema_ = MustParseSchema(testing::kVehicleRentalSchema);
  State state_{&schema_};

  ClassId Cls(const char* name) { return schema_.FindClass(name).value(); }
};

TEST_F(StateTest, AddObjectInitializesAttributesToNull) {
  StatusOr<Oid> auto_oid = state_.AddObject(Cls("Auto"));
  OOCQ_ASSERT_OK(auto_oid.status());
  const Value* veh_id = state_.GetAttribute(*auto_oid, "VehId");
  ASSERT_NE(veh_id, nullptr);
  EXPECT_TRUE(veh_id->is_null());
  // Inherited and own attributes both exist.
  EXPECT_NE(state_.GetAttribute(*auto_oid, "Doors"), nullptr);
  // Attributes of other classes do not.
  EXPECT_EQ(state_.GetAttribute(*auto_oid, "Rate"), nullptr);
}

TEST_F(StateTest, AddObjectRejectsNonTerminal) {
  EXPECT_EQ(state_.AddObject(Cls("Vehicle")).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(state_.AddObject(Cls("Client")).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(StateTest, AddObjectRejectsBuiltin) {
  EXPECT_EQ(state_.AddObject(kIntClassId).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(StateTest, SetAttributeUnknownNameRejected) {
  Oid oid = *state_.AddObject(Cls("Auto"));
  EXPECT_EQ(state_.SetAttribute(oid, "Nope", Value::Null()).code(),
            StatusCode::kNotFound);
}

TEST_F(StateTest, PrimitiveInterningIsCanonical) {
  Oid a = state_.InternInt(42);
  Oid b = state_.InternInt(42);
  Oid c = state_.InternInt(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(state_.class_of(a), kIntClassId);

  Oid s1 = state_.InternString("hi");
  Oid s2 = state_.InternString("hi");
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(state_.class_of(s1), kStringClassId);

  Oid r = state_.InternReal(2.5);
  EXPECT_EQ(state_.class_of(r), kRealClassId);
}

TEST_F(StateTest, ExtentFollowsHierarchy) {
  Oid auto1 = *state_.AddObject(Cls("Auto"));
  Oid auto2 = *state_.AddObject(Cls("Auto"));
  Oid truck = *state_.AddObject(Cls("Truck"));
  *state_.AddObject(Cls("Discount"));

  std::vector<Oid> vehicles = state_.Extent(Cls("Vehicle"));
  EXPECT_EQ(vehicles, (std::vector<Oid>{auto1, auto2, truck}));
  EXPECT_EQ(state_.Extent(Cls("Auto")), (std::vector<Oid>{auto1, auto2}));
  EXPECT_EQ(state_.Extent(Cls("Client")).size(), 1u);
}

TEST_F(StateTest, TerminalPartitioningByConstruction) {
  Oid auto1 = *state_.AddObject(Cls("Auto"));
  // An object belongs to exactly one terminal class.
  EXPECT_TRUE(state_.IsMember(auto1, Cls("Auto")));
  EXPECT_TRUE(state_.IsMember(auto1, Cls("Vehicle")));
  EXPECT_FALSE(state_.IsMember(auto1, Cls("Truck")));
  EXPECT_FALSE(state_.IsMember(auto1, Cls("Client")));
}

TEST_F(StateTest, ValidateAcceptsWellTypedState) {
  Oid auto1 = *state_.AddObject(Cls("Auto"));
  Oid discount = *state_.AddObject(Cls("Discount"));
  OOCQ_ASSERT_OK(state_.SetAttribute(auto1, "VehId",
                                     Value::Ref(state_.InternString("A1"))));
  OOCQ_ASSERT_OK(
      state_.SetAttribute(discount, "VehRented", Value::Set({auto1})));
  OOCQ_EXPECT_OK(state_.Validate());
}

TEST_F(StateTest, ValidateRejectsWrongRefClass) {
  Oid auto1 = *state_.AddObject(Cls("Auto"));
  // VehId must be a String, not an Int.
  OOCQ_ASSERT_OK(
      state_.SetAttribute(auto1, "VehId", Value::Ref(state_.InternInt(7))));
  EXPECT_EQ(state_.Validate().code(), StatusCode::kInvalidArgument);
}

TEST_F(StateTest, ValidateRejectsSetInObjectSlot) {
  Oid auto1 = *state_.AddObject(Cls("Auto"));
  OOCQ_ASSERT_OK(state_.SetAttribute(auto1, "VehId", Value::Set({})));
  EXPECT_EQ(state_.Validate().code(), StatusCode::kInvalidArgument);
}

TEST_F(StateTest, ValidateRejectsRefInSetSlot) {
  Oid discount = *state_.AddObject(Cls("Discount"));
  Oid auto1 = *state_.AddObject(Cls("Auto"));
  OOCQ_ASSERT_OK(
      state_.SetAttribute(discount, "VehRented", Value::Ref(auto1)));
  EXPECT_EQ(state_.Validate().code(), StatusCode::kInvalidArgument);
}

TEST_F(StateTest, ValidateRejectsSetMemberOutsideElementClass) {
  // Discount.VehRented is refined to {Auto}: a Truck member is illegal.
  Oid discount = *state_.AddObject(Cls("Discount"));
  Oid truck = *state_.AddObject(Cls("Truck"));
  OOCQ_ASSERT_OK(
      state_.SetAttribute(discount, "VehRented", Value::Set({truck})));
  EXPECT_EQ(state_.Validate().code(), StatusCode::kInvalidArgument);
}

TEST_F(StateTest, ValidateAcceptsRefinedSetMember) {
  // Regular clients may rent any vehicle.
  Oid regular = *state_.AddObject(Cls("Regular"));
  Oid truck = *state_.AddObject(Cls("Truck"));
  OOCQ_ASSERT_OK(
      state_.SetAttribute(regular, "VehRented", Value::Set({truck})));
  OOCQ_EXPECT_OK(state_.Validate());
}

TEST_F(StateTest, DebugStrings) {
  Oid auto1 = *state_.AddObject(Cls("Auto"));
  EXPECT_EQ(state_.DebugString(auto1), "Auto#" + std::to_string(auto1));
  EXPECT_EQ(state_.DebugString(state_.InternInt(5)), "Int(5)");
  EXPECT_EQ(state_.DebugString(state_.InternString("hi")),
            "String(\"hi\")");
  EXPECT_EQ(state_.DebugString(9999), "<invalid oid>");
}

// ---- Access paths (state/index.h) ---------------------------------------

class StateIndexTest : public ::testing::Test {
 protected:
  StateIndexTest() : state_(&schema_) {
    c_ = schema_.FindClass("C").value();
    e_ = schema_.FindClass("E").value();
    f_ = schema_.FindClass("F").value();
  }

  static std::vector<Oid> Owners(const OwnerPostings& postings, Oid value) {
    std::span<const Oid> owners = postings.Owners(value);
    return {owners.begin(), owners.end()};
  }

  Schema schema_ = MustParseSchema(R"(
schema Idx {
  class D { }
  class E under D { }
  class F under D { }
  class C { A: D; S: {D}; }
})");
  State state_;
  ClassId c_, e_, f_;
};

TEST_F(StateIndexTest, TerminalExtentsMatchScan) {
  Oid e1 = *state_.AddObject(e_);
  Oid f1 = *state_.AddObject(f_);
  *state_.AddObject(c_);
  const StateIndex& index = state_.index();
  EXPECT_EQ(index.TerminalExtent(e_), state_.Extent(e_));
  EXPECT_EQ(index.TerminalExtent(f_), state_.Extent(f_));
  EXPECT_EQ(index.TerminalExtent(c_), state_.Extent(c_));
  // Objects live in terminal classes only; D's extent is E's plus F's.
  ClassId d = schema_.FindClass("D").value();
  EXPECT_TRUE(index.TerminalExtent(d).empty());
  EXPECT_EQ(state_.Extent(d), (std::vector<Oid>{e1, f1}));
}

TEST_F(StateIndexTest, RefPostings) {
  Oid e1 = *state_.AddObject(e_);
  Oid c1 = *state_.AddObject(c_);
  Oid c2 = *state_.AddObject(c_);
  ASSERT_TRUE(state_.SetAttribute(c1, "A", Value::Ref(e1)).ok());
  ASSERT_TRUE(state_.SetAttribute(c2, "A", Value::Ref(e1)).ok());
  const StateIndex& index = state_.index();
  EXPECT_EQ(Owners(index.RefPostings("A"), e1), (std::vector<Oid>{c1, c2}));
  EXPECT_TRUE(index.RefPostings("A").Owners(c1).empty());
  EXPECT_TRUE(index.RefPostings("Nope").Owners(e1).empty());
  EXPECT_TRUE(index.SetPostings("A").Owners(e1).empty());
}

TEST_F(StateIndexTest, SetPostings) {
  Oid e1 = *state_.AddObject(e_);
  Oid e2 = *state_.AddObject(e_);
  Oid c1 = *state_.AddObject(c_);
  ASSERT_TRUE(state_.SetAttribute(c1, "S", Value::Set({e1})).ok());
  const StateIndex& index = state_.index();
  EXPECT_EQ(Owners(index.SetPostings("S"), e1), std::vector<Oid>{c1});
  EXPECT_TRUE(index.SetPostings("S").Owners(e2).empty());
  EXPECT_TRUE(index.RefPostings("S").Owners(e1).empty());
}

TEST_F(StateIndexTest, NullSlotsHaveNoPostings) {
  // c1's slots are Λ: `u = x.A` is unknown for every u, never true, so
  // the reverse access path must yield no owner either.
  Oid e1 = *state_.AddObject(e_);
  *state_.AddObject(c_);
  const StateIndex& index = state_.index();
  EXPECT_TRUE(index.RefPostings("A").Owners(e1).empty());
  EXPECT_TRUE(index.SetPostings("S").Owners(e1).empty());
  ConjunctiveQuery query = MustParseQuery(
      schema_, "{ u | exists x (u in E & x in C & u = x.A) }");
  EXPECT_TRUE(Evaluate(state_, query)->empty());
}

TEST_F(StateIndexTest, MutationsDropTheIndex) {
  Oid e1 = *state_.AddObject(e_);
  Oid c1 = *state_.AddObject(c_);
  EXPECT_TRUE(state_.index().RefPostings("A").Owners(e1).empty());
  OOCQ_ASSERT_OK(state_.SetAttribute(c1, "A", Value::Ref(e1)));
  EXPECT_EQ(Owners(state_.index().RefPostings("A"), e1),
            std::vector<Oid>{c1});
  Oid e2 = *state_.AddObject(e_);
  EXPECT_EQ(state_.index().TerminalExtent(e_), (std::vector<Oid>{e1, e2}));
}

TEST_F(StateIndexTest, CopiesAndMovesKeepTheirOwnIndex) {
  Oid e1 = *state_.AddObject(e_);
  Oid c1 = *state_.AddObject(c_);
  OOCQ_ASSERT_OK(state_.SetAttribute(c1, "A", Value::Ref(e1)));
  ASSERT_EQ(Owners(state_.index().RefPostings("A"), e1),
            std::vector<Oid>{c1});

  State copy = state_;
  OOCQ_ASSERT_OK(copy.SetAttribute(c1, "A", Value::Null()));
  EXPECT_TRUE(copy.index().RefPostings("A").Owners(e1).empty());
  EXPECT_EQ(Owners(state_.index().RefPostings("A"), e1),
            std::vector<Oid>{c1});

  State moved = std::move(state_);
  EXPECT_EQ(Owners(moved.index().RefPostings("A"), e1),
            std::vector<Oid>{c1});
}

// Threads evaluating on one freshly parsed state race to build its
// index: it is built exactly once and every thread sees the same answers.
TEST(StateIndexConcurrencyTest, FirstEvaluationsShareOneBuild) {
  Schema schema = MustParseSchema(testing::kVehicleRentalSchema);
  GeneratorParams params;
  params.objects_per_class = 30;
  StatusOr<State> state =
      ParseState(&schema, StateToString(GenerateRandomState(schema, params)));
  OOCQ_ASSERT_OK(state.status());
  // Binds x first, then its renters y through the set postings.
  ConjunctiveQuery query = MustParseQuery(
      schema,
      "{ x | exists y (x in Vehicle & y in Client & x in y.VehRented) }");

  MetricsRegistry metrics;
  MetricsScope scope(&metrics);
  ASSERT_TRUE(scope.active());
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<std::vector<Oid>> answers(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      StatusOr<std::vector<Oid>> result = Evaluate(*state, query);
      if (result.ok()) {
        answers[i] = *std::move(result);
      } else {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(metrics.CounterValue("state/index_builds"), 1u);

  EvalOptions walker;
  walker.enable_compilation = false;
  StatusOr<std::vector<Oid>> expected = Evaluate(*state, query, walker);
  OOCQ_ASSERT_OK(expected.status());
  EXPECT_FALSE(expected->empty());
  for (const std::vector<Oid>& answer : answers) EXPECT_EQ(answer, *expected);
}

TEST(ValueTest, SetOperations) {
  Value set = Value::Set({3, 1, 2, 2});
  EXPECT_EQ(set.set(), (std::vector<Oid>{1, 2, 3}));
  EXPECT_TRUE(set.Contains(2));
  EXPECT_FALSE(set.Contains(5));
  set.Insert(5);
  set.Insert(5);
  EXPECT_EQ(set.set(), (std::vector<Oid>{1, 2, 3, 5}));
  EXPECT_FALSE(Value::Null().Contains(1));
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Ref(7).ref(), 7u);
}

}  // namespace
}  // namespace oocq
