// Unit tests for the consistent-augmentation enumeration (Thm 3.1).

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <string>
#include <vector>

#include "core/augmentation.h"
#include "core/containment.h"
#include "core/satisfiability.h"
#include "query/well_formed.h"
#include "support/metrics.h"
#include "random_query.h"
#include "test_util.h"

namespace oocq {
namespace {

using ::oocq::testing::GenerateRandomQuery;
using ::oocq::testing::MustParseQuery;
using ::oocq::testing::MustParseSchema;
using ::oocq::testing::RandomQueryParams;

class AugmentationTest : public ::testing::Test {
 protected:
  Schema schema_ = MustParseSchema(R"(
schema Aug {
  class D { }
  class E under D { }
  class F under D { }
  class C { A: D; }
})");

  uint64_t Count(const std::string& text) {
    ConjunctiveQuery query = MustParseQuery(schema_, text);
    StatusOr<uint64_t> count =
        CountConsistentAugmentations(schema_, query, {});
    EXPECT_TRUE(count.ok()) << count.status().ToString();
    return count.ok() ? *count : 0;
  }
};

TEST_F(AugmentationTest, SingleVariableHasOnlyEmptyAugmentation) {
  EXPECT_EQ(Count("{ x | x in E }"), 1u);
}

TEST_F(AugmentationTest, TwoSameClassVariablesBellTwo) {
  // Partitions of {x, y}: discrete and merged.
  EXPECT_EQ(Count("{ x | exists y (x in E & y in E) }"), 2u);
}

TEST_F(AugmentationTest, ThreeSameClassVariablesBellThree) {
  // Bell(3) = 5.
  EXPECT_EQ(Count("{ x | exists y exists z (x in E & y in E & z in E) }"),
            5u);
}

TEST_F(AugmentationTest, CrossClassVariablesNeverMerge) {
  // E and F cannot merge: only the discrete partition.
  EXPECT_EQ(Count("{ x | exists y (x in E & y in F) }"), 1u);
}

TEST_F(AugmentationTest, MixedGroupsMultiply) {
  // {x,y} over E (Bell 2) x {u,v} over F (Bell 2) = 4.
  EXPECT_EQ(Count("{ x | exists y exists u exists v (x in E & y in E & "
                  "u in F & v in F) }"),
            4u);
}

TEST_F(AugmentationTest, InequalityBlocksMergedPartition) {
  // Merging x, y contradicts x != y: only the discrete partition remains.
  EXPECT_EQ(Count("{ x | exists y (x in E & y in E & x != y) }"), 1u);
}

TEST_F(AugmentationTest, CongruenceBlocksMerge) {
  // Example 1.3's engine: merging x, y forces s = t across E/F.
  EXPECT_EQ(
      Count("{ x | exists y exists s exists t (x in C & y in C & s in E & "
            "t in F & s = x.A & t = y.A) }"),
      1u);
}

TEST_F(AugmentationTest, CapCountsConsistentAugmentationsOnly) {
  // Bell(4) = 15 partitions of {x, y, z, w}; the Bell(3) = 5 that merge y
  // and z contradict y != z, so 10 augmentations are consistent.
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ x | exists y exists z exists w (x in E & y in E & z in E & "
      "w in E & y != z) }");
  AugmentationOptions at_count;
  at_count.max_augmentations = 10;
  StatusOr<uint64_t> count =
      CountConsistentAugmentations(schema_, query, at_count);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 10u);
  AugmentationOptions below;
  below.max_augmentations = 9;
  EXPECT_EQ(CountConsistentAugmentations(schema_, query, below).status().code(),
            StatusCode::kResourceExhausted);
}

/// { y0 | exists y1 ... exists y(n-1) (every yi in E & every yi != yj) }:
/// Bell(n) partitions, of which only the discrete one is consistent.
std::string AllPairsUnequal(int n) {
  std::string text = "{ y0 | ";
  for (int i = 1; i < n; ++i) text += "exists y" + std::to_string(i) + " ";
  text += "(y0 in E";
  for (int i = 1; i < n; ++i) text += " & y" + std::to_string(i) + " in E";
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      text += " & y" + std::to_string(i) + " != y" + std::to_string(j);
    }
  }
  return text + ") }";
}

TEST_F(AugmentationTest, InconsistentMergesArePrunedWhenMade) {
  // Bell(11) = 678,570 partitions and one consistent augmentation. Every
  // merge is refuted as it is made, so the walk checks the query once and
  // each variable against each earlier block once: 1 + 55 checks.
  ConjunctiveQuery query = MustParseQuery(schema_, AllPairsUnequal(11));
  MetricsRegistry registry;
  {
    MetricsScope scope(&registry);
    ASSERT_TRUE(scope.active());
    StatusOr<uint64_t> count =
        CountConsistentAugmentations(schema_, query, {});
    OOCQ_ASSERT_OK(count.status());
    EXPECT_EQ(*count, 1u);
  }
  EXPECT_EQ(registry.CounterValue("satisfiability/checks"), 56u);
}

TEST_F(AugmentationTest, ContainmentWithoutDeadlineStaysBounded) {
  // The same Q1 under default options and no deadline: the Cor 3.3
  // decision checks one augmentation. Walking every partition instead
  // took seconds per request, and grows with Bell(n).
  ConjunctiveQuery q1 = MustParseQuery(schema_, AllPairsUnequal(11));
  ConjunctiveQuery q2 = MustParseQuery(
      schema_, "{ x | exists u exists v (x in E & u in E & v in E & "
               "u != v) }");
  MetricsRegistry registry;
  {
    MetricsScope scope(&registry);
    ASSERT_TRUE(scope.active());
    StatusOr<bool> contained = Contained(schema_, q1, q2);
    OOCQ_ASSERT_OK(contained.status());
    EXPECT_TRUE(*contained);
  }
  EXPECT_EQ(registry.CounterValue("containment/augmentations"), 1u);
  EXPECT_LT(registry.CounterValue("satisfiability/checks"), 100u);
}

/// Every consistent augmentation in enumeration order, found by checking
/// each whole partition (`partitions` counts them): the unpruned walk.
std::vector<ConjunctiveQuery> EveryConsistentPartition(
    const Schema& schema, const ConjunctiveQuery& query, int& partitions) {
  std::vector<ConjunctiveQuery> found;
  std::vector<VarId> leaders;  // block -> first variable
  std::vector<size_t> block_of(query.num_vars());
  std::function<void(VarId)> walk = [&](VarId v) {
    if (v == query.num_vars()) {
      ++partitions;
      ConjunctiveQuery augmented = query;
      for (VarId u = 0; u < query.num_vars(); ++u) {
        if (leaders[block_of[u]] != u) {
          augmented.AddAtom(Atom::Equality(Term::Var(leaders[block_of[u]]),
                                           Term::Var(u)));
        }
      }
      if (CheckSatisfiable(schema, augmented).satisfiable) {
        found.push_back(std::move(augmented));
      }
      return;
    }
    for (size_t b = 0; b < leaders.size(); ++b) {
      if (query.RangeClassOf(leaders[b]) != query.RangeClassOf(v)) continue;
      block_of[v] = b;
      walk(v + 1);
    }
    block_of[v] = leaders.size();
    leaders.push_back(v);
    walk(v + 1);
    leaders.pop_back();
  };
  walk(0);
  return found;
}

TEST(AugmentationPruneTest, PrunedWalkMatchesEveryPartitionChecked) {
  // A pruned prefix must have no consistent completion: the enumeration
  // emits exactly the unpruned walk's augmentations, in its order.
  Schema schema = MustParseSchema(R"(
schema Prune {
  class D { }
  class E under D { }
  class F under D { }
  class C { A: D; B: E; S: {D}; T: {E}; }
})");
  RandomQueryParams params;
  params.max_vars = 6;
  params.max_extra_atoms = 8;
  params.allow_negative = true;
  std::mt19937_64 rng(20261020);
  int compared = 0;
  int pruned = 0;  // satisfiable queries with an inconsistent partition
  for (int round = 0; round < 2000; ++round) {
    ConjunctiveQuery query = GenerateRandomQuery(schema, rng, params);
    if (!CheckWellFormed(schema, query).ok()) continue;
    std::vector<ConjunctiveQuery> emitted;
    StatusOr<bool> result = ForEachConsistentAugmentation(
        schema, query, {}, [&emitted](const ConjunctiveQuery& augmented) {
          emitted.push_back(augmented);
          return true;
        });
    OOCQ_ASSERT_OK(result.status());
    int partitions = 0;
    std::vector<ConjunctiveQuery> expected =
        EveryConsistentPartition(schema, query, partitions);
    ASSERT_EQ(emitted.size(), expected.size()) << "round " << round;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(emitted[i] == expected[i]) << "round " << round;
    }
    ++compared;
    if (!expected.empty() && expected.size() < size_t(partitions)) ++pruned;
  }
  EXPECT_GT(compared, 1500);
  EXPECT_GT(pruned, 50);  // 87 at this seed
}

TEST_F(AugmentationTest, AugmentedQueriesCarryEqualities) {
  ConjunctiveQuery query =
      MustParseQuery(schema_, "{ x | exists y (x in E & y in E) }");
  std::vector<size_t> atom_counts;
  StatusOr<bool> result = ForEachConsistentAugmentation(
      schema_, query, {}, [&](const ConjunctiveQuery& augmented) {
        atom_counts.push_back(augmented.atoms().size());
        EXPECT_EQ(augmented.num_vars(), query.num_vars());
        return true;
      });
  OOCQ_ASSERT_OK(result.status());
  EXPECT_TRUE(*result);
  std::sort(atom_counts.begin(), atom_counts.end());
  // Discrete: 2 atoms; merged: 2 range atoms + 1 equality.
  EXPECT_EQ(atom_counts, (std::vector<size_t>{2, 3}));
}

TEST_F(AugmentationTest, EarlyStopPropagates) {
  ConjunctiveQuery query =
      MustParseQuery(schema_, "{ x | exists y (x in E & y in E) }");
  int calls = 0;
  StatusOr<bool> result = ForEachConsistentAugmentation(
      schema_, query, {}, [&](const ConjunctiveQuery&) {
        ++calls;
        return false;  // Stop immediately.
      });
  OOCQ_ASSERT_OK(result.status());
  EXPECT_FALSE(*result);
  EXPECT_EQ(calls, 1);
}

TEST_F(AugmentationTest, CapEnforced) {
  ConjunctiveQuery query = MustParseQuery(
      schema_,
      "{ a | exists b exists c exists d exists e (a in E & b in E & "
      "c in E & d in E & e in E) }");
  AugmentationOptions options;
  options.max_augmentations = 10;  // Bell(5) = 52 > 10.
  EXPECT_EQ(
      CountConsistentAugmentations(schema_, query, options).status().code(),
      StatusCode::kResourceExhausted);
}

TEST_F(AugmentationTest, BellNumbersForLargerGroups) {
  EXPECT_EQ(Count("{ a | exists b exists c exists d (a in E & b in E & "
                  "c in E & d in E) }"),
            15u);  // Bell(4).
}

}  // namespace
}  // namespace oocq
