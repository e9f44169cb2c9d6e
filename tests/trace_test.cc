// The span tracer (support/trace.h): RAII nesting, thread attribution,
// Chrome-trace well-formedness, and the spans a pipeline run records.
// Labeled `concurrency` so a TSan build exercises the thread-local buffer
// handoff (ctest -L concurrency).

#include "support/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "core/engine_options.h"
#include "core/optimizer.h"
#include "test_util.h"

namespace oocq {
namespace {

using ::oocq::testing::kVehicleRentalSchema;
using ::oocq::testing::MustParseSchema;

const TraceEvent* FindByName(const TraceLog& log, const std::string& name) {
  for (const TraceEvent& event : log.events()) {
    if (event.name == name) return &event;
  }
  return nullptr;
}

TEST(TraceTest, InertWithoutSession) {
  EXPECT_FALSE(TracingActive());
  OOCQ_TRACE_SPAN(span, "orphan");
  span.Arg("k", "v");
  EXPECT_FALSE(span.recording());
}

#if defined(OOCQ_DISABLE_TRACING)

// With tracing compiled out, spans stay inert even inside a session; the
// behavioral tests below only apply to the instrumented build.
TEST(TraceTest, CompiledOutSpansStayInert) {
  TraceLog log;
  {
    TraceSession session(&log);
    OOCQ_TRACE_SPAN(span, "noop");
    span.Arg("k", "v");
    EXPECT_FALSE(span.recording());
  }
  EXPECT_TRUE(log.events().empty());
}

#else  // !OOCQ_DISABLE_TRACING

TEST(TraceTest, SpanNestingDepthSeqAndArgs) {
  TraceLog log;
  {
    TraceSession session(&log);
    ASSERT_TRUE(session.active());
    EXPECT_TRUE(TracingActive());
    {
      OOCQ_TRACE_SPAN(outer, "outer");
      outer.Arg("k", "v").Arg("n", uint64_t{7});
      EXPECT_TRUE(outer.recording());
      {
        OOCQ_TRACE_SPAN(middle, "middle");
        { OOCQ_TRACE_SPAN(inner, "inner"); }
      }
    }
    OOCQ_TRACE_SPAN(sibling, "sibling");
  }
  EXPECT_FALSE(TracingActive());

  ASSERT_EQ(log.events().size(), 4u);
  const TraceEvent* outer = FindByName(log, "outer");
  const TraceEvent* middle = FindByName(log, "middle");
  const TraceEvent* inner = FindByName(log, "inner");
  const TraceEvent* sibling = FindByName(log, "sibling");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(middle, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(sibling, nullptr);

  // Depth reflects lexical nesting; seq is start order on the thread.
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(middle->depth, 1u);
  EXPECT_EQ(inner->depth, 2u);
  EXPECT_EQ(sibling->depth, 0u);
  EXPECT_EQ(outer->seq, 0u);
  EXPECT_EQ(middle->seq, 1u);
  EXPECT_EQ(inner->seq, 2u);
  EXPECT_EQ(sibling->seq, 3u);

  // Args survive in order and define the signature.
  ASSERT_EQ(outer->args.size(), 2u);
  EXPECT_EQ(outer->args[0].first, "k");
  EXPECT_EQ(outer->args[0].second, "v");
  EXPECT_EQ(outer->args[1].second, "7");
  EXPECT_EQ(outer->Signature(), "outer(k=v,n=7)");
  EXPECT_EQ(inner->Signature(), "inner()");

  // Ids are the 1..N ranks of the signature-sorted order:
  // inner() < middle() < outer(...) < sibling().
  EXPECT_EQ(inner->id, 1u);
  EXPECT_EQ(middle->id, 2u);
  EXPECT_EQ(outer->id, 3u);
  EXPECT_EQ(sibling->id, 4u);
}

TEST(TraceTest, FirstSessionWinsNestedIsInert) {
  TraceLog primary;
  TraceLog nested;
  {
    TraceSession session(&primary);
    ASSERT_TRUE(session.active());
    {
      TraceSession shadow(&nested);
      EXPECT_FALSE(shadow.active());
      OOCQ_TRACE_SPAN(span, "recorded");
    }
    // The nested session's destruction must not tear down the primary.
    EXPECT_TRUE(TracingActive());
    OOCQ_TRACE_SPAN(span, "still_recorded");
  }
  EXPECT_TRUE(nested.empty());
  EXPECT_EQ(primary.events().size(), 2u);
  EXPECT_NE(FindByName(primary, "recorded"), nullptr);
  EXPECT_NE(FindByName(primary, "still_recorded"), nullptr);

  TraceSession null_session(nullptr);
  EXPECT_FALSE(null_session.active());
  EXPECT_FALSE(TracingActive());
}

TEST(TraceTest, ThreadAttributionAndOrdering) {
  TraceLog log;
  {
    TraceSession session(&log);
    { OOCQ_TRACE_SPAN(span, "main_thread"); }
    std::vector<std::thread> workers;
    for (int worker = 0; worker < 2; ++worker) {
      workers.emplace_back([worker] {
        for (int i = 0; i < 3; ++i) {
          OOCQ_TRACE_SPAN(span, "worker");
          span.Arg("w", static_cast<uint64_t>(worker))
              .Arg("i", static_cast<uint64_t>(i));
        }
      });
    }
    for (std::thread& thread : workers) thread.join();
  }
  ASSERT_EQ(log.events().size(), 7u);

  // Three distinct threads recorded; events come back sorted by
  // (thread_index, seq) and each thread's seq counts from 0.
  std::vector<uint32_t> threads;
  for (const TraceEvent& event : log.events()) {
    threads.push_back(event.thread_index);
  }
  EXPECT_TRUE(std::is_sorted(threads.begin(), threads.end()));
  std::sort(threads.begin(), threads.end());
  threads.erase(std::unique(threads.begin(), threads.end()), threads.end());
  EXPECT_EQ(threads.size(), 3u);

  uint64_t expected_seq = 0;
  uint32_t current_thread = log.events().front().thread_index;
  for (const TraceEvent& event : log.events()) {
    if (event.thread_index != current_thread) {
      current_thread = event.thread_index;
      expected_seq = 0;
    }
    EXPECT_EQ(event.seq, expected_seq++);
  }

  // Within each worker thread the i annotation increases with seq.
  for (int worker = 0; worker < 2; ++worker) {
    std::vector<std::string> order;
    for (const TraceEvent& event : log.events()) {
      if (event.name == "worker" &&
          event.args[0].second == std::to_string(worker)) {
        order.push_back(event.args[1].second);
      }
    }
    EXPECT_EQ(order, (std::vector<std::string>{"0", "1", "2"}))
        << "worker " << worker;
  }
}

// Minimal JSON scanner: checks quotes are balanced and braces/brackets
// nest correctly outside string literals — enough to catch broken
// escaping or unbalanced emission without a JSON library.
void ExpectBalancedJson(const std::string& json) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        ASSERT_FALSE(stack.empty());
        ASSERT_EQ(stack.back(), '{');
        stack.pop_back();
        break;
      case ']':
        ASSERT_FALSE(stack.empty());
        ASSERT_EQ(stack.back(), '[');
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_TRUE(stack.empty());
}

TEST(TraceTest, ChromeTraceJsonWellFormed) {
  TraceLog log;
  {
    TraceSession session(&log);
    OOCQ_TRACE_SPAN(span, "spiky");
    span.Arg("text", std::string("quote\" slash\\ newline\n tab\t"));
  }
  std::string json = log.ChromeTraceJson();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"spiky\""), std::string::npos);
  EXPECT_NE(json.find("\"span_id\":\"1\""), std::string::npos);
  // The raw control characters must not appear; their escapes must.
  EXPECT_EQ(json.find("newline\n"), std::string::npos);
  EXPECT_NE(json.find("quote\\\" slash\\\\ newline\\n tab\\t"),
            std::string::npos);
  ExpectBalancedJson(json);

  std::string jsonl = log.JsonlString();
  ASSERT_FALSE(jsonl.empty());
  EXPECT_EQ(jsonl.back(), '\n');
  size_t start = 0;
  while (start < jsonl.size()) {
    size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    std::string line = jsonl.substr(start, end - start);
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ExpectBalancedJson(line);
    start = end + 1;
  }
}

TEST(TraceTest, LogAccumulatesAcrossSessionsWithFreshIds) {
  TraceLog log;
  {
    TraceSession session(&log);
    OOCQ_TRACE_SPAN(span, "first");
  }
  {
    TraceSession session(&log);
    OOCQ_TRACE_SPAN(span, "second");
  }
  ASSERT_EQ(log.events().size(), 2u);
  // Ids are reassigned over the whole log: first() < second().
  EXPECT_EQ(FindByName(log, "first")->id, 1u);
  EXPECT_EQ(FindByName(log, "second")->id, 2u);
}

class TracePipelineTest : public ::testing::Test {
 protected:
  Schema schema_ = MustParseSchema(kVehicleRentalSchema);

  // `y in Client` keeps four satisfiable disjuncts after expansion, so the
  // redundancy matrix actually runs Contained() tests (a Discount-only
  // query prunes to one disjunct and skips them).
  static constexpr const char* kQuery =
      "{ x | exists y (x in Vehicle & y in Client & x in y.VehRented) }";

  TraceLog RunPipeline() {
    TraceLog log;
    EngineOptions options;
    options.observability.trace = &log;
    QueryOptimizer optimizer(schema_, options);
    StatusOr<OptimizeReport> report = optimizer.OptimizeText(kQuery);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return log;
  }
};

TEST_F(TracePipelineTest, PipelinePhasesAppearAsSpans) {
  TraceLog log = RunPipeline();
  ASSERT_FALSE(log.empty());
  for (const char* name :
       {"Optimize", "NormalizeToWellFormed", "Expand",
        "RemoveRedundantDisjuncts", "MinimizeVariables", "Contained"}) {
    EXPECT_NE(FindByName(log, name), nullptr) << "missing span " << name;
  }
  // Every Contained span names the specialization that decided it.
  for (const TraceEvent& event : log.events()) {
    if (event.name != "Contained") continue;
    ASSERT_FALSE(event.args.empty());
    EXPECT_EQ(event.args[0].first, "spec");
    EXPECT_TRUE(event.args[0].second == "Cor3.2" ||
                event.args[0].second == "Cor3.3" ||
                event.args[0].second == "Cor3.4" ||
                event.args[0].second == "Thm3.1" ||
                event.args[0].second == "trivial")
        << event.Signature();
  }
}

#endif  // OOCQ_DISABLE_TRACING

}  // namespace
}  // namespace oocq
