// Tests for the containment explanation facility: the verdict always
// matches Contained(), and the narrative carries the load-bearing parts.

#include "core/explain.h"

#include <gtest/gtest.h>

#include "core/containment.h"
#include "support/metrics.h"
#include "test_util.h"

namespace oocq {
namespace {

using ::oocq::testing::MustParseQuery;
using ::oocq::testing::MustParseSchema;

class ExplainTest : public ::testing::Test {
 protected:
  Schema schema_ = MustParseSchema(R"(
schema Exp {
  class D { }
  class E under D { }
  class F under D { }
  class C { A: D; S: {D}; }
})");

  ContainmentExplanation Explain(const std::string& q1,
                                 const std::string& q2) {
    StatusOr<ContainmentExplanation> result = ExplainContainment(
        schema_, MustParseQuery(schema_, q1), MustParseQuery(schema_, q2));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *std::move(result) : ContainmentExplanation{};
  }
};

TEST_F(ExplainTest, PositiveWitnessMapping) {
  ContainmentExplanation explanation =
      Explain("{ x | exists u (x in C & u in E & u in x.S) }",
              "{ a | exists b (a in C & b in E & b in a.S) }");
  EXPECT_TRUE(explanation.contained);
  EXPECT_NE(explanation.text.find("Corollary 3.4"), std::string::npos);
  EXPECT_NE(explanation.text.find("witness mapping"), std::string::npos);
  EXPECT_NE(explanation.text.find("a -> x"), std::string::npos);
  EXPECT_NE(explanation.text.find("CONTAINED"), std::string::npos);
}

TEST_F(ExplainTest, PositiveRefutation) {
  ContainmentExplanation explanation =
      Explain("{ x | exists u (x in C & u in E) }",
              "{ x | exists u (x in C & u in E & u in x.S) }");
  EXPECT_FALSE(explanation.contained);
  EXPECT_NE(explanation.text.find("NOT CONTAINED"), std::string::npos);
  EXPECT_NE(explanation.text.find("no non-contradictory mapping"),
            std::string::npos);
}

TEST_F(ExplainTest, UnsatisfiableLhs) {
  ContainmentExplanation explanation =
      Explain("{ x | exists y (x in E & y in F & x = y) }",
              "{ x | x in F }");
  EXPECT_TRUE(explanation.contained);
  EXPECT_NE(explanation.text.find("Q1 is unsatisfiable"), std::string::npos);
}

TEST_F(ExplainTest, UnsatisfiableRhs) {
  ContainmentExplanation explanation =
      Explain("{ x | x in E }",
              "{ x | exists y (x in E & y in F & x = y) }");
  EXPECT_FALSE(explanation.contained);
  EXPECT_NE(explanation.text.find("Q2 is unsatisfiable"), std::string::npos);
}

TEST_F(ExplainTest, InequalityDispatchAndRefutingAugmentation) {
  ContainmentExplanation explanation =
      Explain("{ x | exists y (x in E & y in E) }",
              "{ x | exists y (x in E & y in E & x != y) }");
  EXPECT_FALSE(explanation.contained);
  EXPECT_NE(explanation.text.find("Corollary 3.3"), std::string::npos);
  // The refuting configuration merges x and y.
  EXPECT_NE(explanation.text.find("augmentation S"), std::string::npos);
  EXPECT_NE(explanation.text.find("x = y"), std::string::npos);
}

TEST_F(ExplainTest, NonMembershipDispatchAndRefutingSubset) {
  ContainmentExplanation explanation = Explain(
      "{ x | exists y exists u (x in E & y in C & u in E & u in y.S) }",
      "{ x | exists y (x in E & y in C & x notin y.S) }");
  EXPECT_FALSE(explanation.contained);
  EXPECT_NE(explanation.text.find("Corollary 3.2"), std::string::npos);
  EXPECT_NE(explanation.text.find("membership subset W"), std::string::npos);
  EXPECT_NE(explanation.text.find("x in y.S"), std::string::npos);
}

// Q2's y can dodge either of Q1's sets y.S and z.S alone, so only the
// mask putting x into both refutes: the first uncovered mask is 3, not 0.
// The compiled scan reports it as its first uncovered mask, the
// interpreted oracle as the first mask its search fails on; both must
// narrate the same W.
TEST_F(ExplainTest, RefutingSubsetMatchesOnCompiledAndInterpretedScans) {
  ConjunctiveQuery q1 = MustParseQuery(
      schema_,
      "{ x | exists y exists z exists u (x in E & y in C & z in C & "
      "u in E & u in y.S & u in z.S) }");
  ConjunctiveQuery q2 = MustParseQuery(
      schema_, "{ x | exists y (x in E & y in C & x notin y.S) }");
  MetricsRegistry registry;
  MetricsScope scope(&registry);
  ASSERT_TRUE(scope.active());
  std::string subset_lines[2];
  for (bool compiled : {true, false}) {
    ContainmentOptions options;
    options.enable_compilation = compiled;
    StatusOr<ContainmentExplanation> explained =
        ExplainContainment(schema_, q1, q2, options);
    OOCQ_ASSERT_OK(explained.status());
    EXPECT_FALSE(explained->contained);
    EXPECT_NE(explained->text.find("Corollary 3.2"), std::string::npos);
    const size_t at = explained->text.find("membership subset W");
    ASSERT_NE(at, std::string::npos) << explained->text;
    subset_lines[compiled ? 0 : 1] =
        explained->text.substr(at, explained->text.find('\n', at) - at);
    // Only the first pass took the compiled scan.
    EXPECT_EQ(registry.CounterValue("compile/mask_scans"), 1u);
  }
  EXPECT_EQ(subset_lines[0], subset_lines[1]);
  EXPECT_NE(subset_lines[0].find("x in y.S"), std::string::npos);
  EXPECT_NE(subset_lines[0].find("x in z.S"), std::string::npos);
}

TEST_F(ExplainTest, NormalizesToWellFormedFirst) {
  // x carries two range atoms; NormalizeToWellFormed moves the second
  // onto a fresh variable equated with x, as for every decision verb.
  ContainmentExplanation explanation =
      Explain("{ x | x in E & x in E }", "{ x | x in E }");
  EXPECT_TRUE(explanation.contained);
  EXPECT_NE(explanation.text.find("witness mapping"), std::string::npos);
}

TEST_F(ExplainTest, FullTheoremDispatch) {
  ContainmentExplanation explanation = Explain(
      "{ x | exists y exists z (x in E & y in C & z in E & x != z & "
      "x notin y.S) }",
      "{ x | exists y exists z (x in E & y in C & z in E & x != z & "
      "x notin y.S) }");
  EXPECT_TRUE(explanation.contained);
  EXPECT_NE(explanation.text.find("Theorem 3.1"), std::string::npos);
}

TEST_F(ExplainTest, VerdictAlwaysMatchesContained) {
  const char* queries[] = {
      "{ x | x in E }",
      "{ x | exists y (x in E & y in E & x != y) }",
      "{ x | exists y (x in E & y in C & x in y.S) }",
      "{ x | exists y (x in E & y in C & x notin y.S) }",
      "{ x | exists u (x in C & u in E & u = x.A) }",
  };
  for (const char* a : queries) {
    for (const char* b : queries) {
      ConjunctiveQuery q1 = MustParseQuery(schema_, a);
      ConjunctiveQuery q2 = MustParseQuery(schema_, b);
      StatusOr<bool> plain = Contained(schema_, q1, q2);
      StatusOr<ContainmentExplanation> explained =
          ExplainContainment(schema_, q1, q2);
      OOCQ_ASSERT_OK(plain.status());
      OOCQ_ASSERT_OK(explained.status());
      EXPECT_EQ(*plain, explained->contained) << a << " vs " << b;
    }
  }
}

}  // namespace
}  // namespace oocq
