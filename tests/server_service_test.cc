// Tests for the embeddable OocqService (server/service.h): session
// registry reuse, per-request deadlines tripping mid-containment,
// admission shedding under overload, batch determinism, and the line
// protocol handler over the same service.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/canonical.h"
#include "core/containment.h"
#include "core/expansion.h"
#include "server/protocol.h"
#include "server/service.h"
#include "support/cancellation.h"
#include "support/metrics.h"
#include "test_util.h"

namespace oocq::server {
namespace {

using ::oocq::testing::ExpectCompiledScan;
using ::oocq::testing::HeavyQ1;
using ::oocq::testing::HeavyQ2;
using ::oocq::testing::HeavySchemaText;
using ::oocq::testing::kSlowDeadlineMs;
using ::oocq::testing::kSlowN;
using ::oocq::testing::kVehicleRentalSchema;
using ::oocq::testing::MustParseQuery;
using ::oocq::testing::MustParseSchema;
using ::oocq::testing::SlowQ1;
using ::oocq::testing::SlowQ2;
using ::oocq::testing::SlowSchemaText;
using ::oocq::testing::SlowServiceOptions;

// Slow requests use test_util.h's Cor 3.3 fixture: SlowQ1(kSlowN) runs
// seconds of augmentation checks, far longer than any test deadline, and
// cancellation is polled per augmentation, so a deadline trips mid-
// containment deterministically. SlowQ1(3) is the quick request.

Request MakeContain(const std::string& session_id, const std::string& q1,
                    const std::string& q2, uint64_t deadline_ms = 0) {
  Request request;
  request.kind = RequestKind::kContained;
  request.session_id = session_id;
  request.query = q1;
  request.query2 = q2;
  request.deadline_ms = deadline_ms;
  return request;
}

Request MakeExplain(const std::string& session_id, const std::string& q1,
                    const std::string& q2, uint64_t deadline_ms = 0) {
  Request request = MakeContain(session_id, q1, q2, deadline_ms);
  request.kind = RequestKind::kExplain;
  return request;
}

// Samples recorded into one of the service's histograms.
uint64_t HistogramCount(const OocqService& service, const std::string& name) {
  for (const auto& histogram : service.metrics().Snap().histograms) {
    if (histogram.name == name) return histogram.count;
  }
  return 0;
}

std::vector<std::string> Payload(std::initializer_list<const char*> lines) {
  return std::vector<std::string>(lines.begin(), lines.end());
}

// Spins until `count` requests have entered the pool (server/started).
void AwaitStarted(const OocqService& service, uint64_t count) {
  while (service.metrics().CounterValue("server/started") < count) {
    std::this_thread::yield();
  }
}

TEST(ServiceSessionTest, RegistryReuseAcrossRequests) {
  OocqService service;
  StatusOr<std::string> sid = service.CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(sid.status());
  EXPECT_EQ(service.session_count(), 1u);

  // Register once, reference many times.
  OOCQ_ASSERT_OK(service.DefineQuery(*sid, "autos", "{ x | x in Auto }"));
  OOCQ_ASSERT_OK(
      service.DefineQuery(*sid, "vehicles", "{ x | x in Vehicle }"));

  Response forward = service.Execute(MakeContain(*sid, "@autos", "@vehicles"));
  OOCQ_ASSERT_OK(forward.status);
  EXPECT_TRUE(forward.verdict);

  Response backward = service.Execute(MakeContain(*sid, "@vehicles", "@autos"));
  OOCQ_ASSERT_OK(backward.status);
  EXPECT_FALSE(backward.verdict);

  // The session's cache serves the repeat decision.
  Response repeat = service.Execute(MakeContain(*sid, "@autos", "@vehicles"));
  OOCQ_ASSERT_OK(repeat.status);
  EXPECT_TRUE(repeat.verdict);

  Response unknown = service.Execute(MakeContain(*sid, "@nosuch", "@autos"));
  EXPECT_EQ(unknown.status.code(), StatusCode::kNotFound);

  OOCQ_ASSERT_OK(service.DropSession(*sid));
  EXPECT_EQ(service.session_count(), 0u);
  Response dropped = service.Execute(MakeContain(*sid, "@autos", "@vehicles"));
  EXPECT_EQ(dropped.status.code(), StatusCode::kNotFound);
}

TEST(ServiceSessionTest, MinimizeAndEquivalentKinds) {
  OocqService service;
  StatusOr<std::string> sid = service.CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(sid.status());

  Request minimize;
  minimize.kind = RequestKind::kMinimize;
  minimize.session_id = *sid;
  minimize.query =
      "{ x | exists y (x in Vehicle & y in Discount & x in y.VehRented) }";
  Response minimized = service.Execute(minimize);
  OOCQ_ASSERT_OK(minimized.status);
  EXPECT_TRUE(minimized.verdict);  // positive query: §4 exact
  EXPECT_NE(minimized.body.find("x in Auto"), std::string::npos)
      << minimized.body;

  Request equiv = MakeContain(
      *sid,
      "{ x | exists y (x in Vehicle & y in Discount & x in y.VehRented) }",
      "{ x | exists y (x in Auto & y in Discount & x in y.VehRented) }");
  equiv.kind = RequestKind::kEquivalent;
  Response equivalent = service.Execute(equiv);
  OOCQ_ASSERT_OK(equivalent.status);
  EXPECT_TRUE(equivalent.verdict);
}

// A refused mutation applies nothing: a bad schema consumes no session
// id, a DROP of an unknown session is NOT_FOUND, and a follower refuses
// writes before parsing them.
TEST(ServiceSessionTest, RefusedMutationsApplyNothing) {
  OocqService service;
  EXPECT_EQ(service.CreateSession("schema {").status().code(),
            StatusCode::kInvalidArgument);
  StatusOr<std::string> sid = service.CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(sid.status());
  EXPECT_EQ(*sid, "s1");
  EXPECT_EQ(service.DropSession("s9").code(), StatusCode::kNotFound);
  EXPECT_EQ(service.DefineQuery("s9", "q", "{ x | x in Auto }").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.DefineQuery(*sid, "q", "{ x |").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.Execute(MakeContain(*sid, "@q", "@q")).status.code(),
            StatusCode::kNotFound);

  ServiceOptions follower_options;
  follower_options.read_only = true;
  OocqService follower(follower_options);
  OOCQ_ASSERT_OK(follower.ApplyReplicated(
      {.type = persist::RecordType::kCreateSession,
       .session_id = "s1",
       .text = kVehicleRentalSchema}));
  // A drop of an absent session is already applied, not an error.
  OOCQ_EXPECT_OK(follower.ApplyReplicated(
      {.type = persist::RecordType::kDropSession, .session_id = "s7"}));
  EXPECT_EQ(follower.DefineQuery("s1", "q", "{ x |").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(follower.CreateSession("schema {").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(follower.session_count(), 1u);
}

// A DEFINE or STATE racing SESSION DROP: the mutation's "still
// registered" check and its resident-byte charge are atomic with the
// drop's release, so the outcome is one of the two serial orders
// (mutation then drop: both OK; drop then mutation: NOT_FOUND) and the
// budget ends with nothing charged. The ~200 kB payload takes longer to
// parse than the head start the drop gives it, so the drop usually lands
// between the mutation's session lookup and its charge.
TEST(ServiceSessionTest, MutationRacingDropLeavesNoResidentBytes) {
  std::string big_query = "{ x | x in Vehicle";
  while (big_query.size() < 200000) big_query += " & x in Vehicle";
  big_query += " }";
  std::string big_state = "state {";
  for (int i = 0; big_state.size() < 200000; ++i) {
    big_state += " a" + std::to_string(i) + ": Auto { Doors = 4; }";
  }
  big_state += " }";

  ServiceOptions options;
  options.budget.max_resident_bytes = 1 << 20;
  OocqService service(options);
  for (const bool define : {true, false}) {
    for (int trial = 0; trial < 10; ++trial) {
      SCOPED_TRACE((define ? "DEFINE trial " : "STATE trial ") +
                   std::to_string(trial));
      StatusOr<std::string> sid = service.CreateSession(kVehicleRentalSchema);
      OOCQ_ASSERT_OK(sid.status());
      Status mutated;
      std::thread mutator([&] {
        mutated = define ? service.DefineQuery(*sid, "big", big_query)
                         : service.LoadState(*sid, big_state);
      });
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      Status dropped = service.DropSession(*sid);
      mutator.join();
      OOCQ_EXPECT_OK(dropped);
      EXPECT_TRUE(mutated.ok() || mutated.code() == StatusCode::kNotFound)
          << mutated.ToString();
      EXPECT_EQ(service.session_count(), 0u);
      EXPECT_EQ(service.CollectHealth().resident_bytes, 0u);
    }
  }
}

// The core abort path, without the service: a pre-expired token makes
// Contained() return kDeadlineExceeded instead of scanning.
TEST(ServiceDeadlineTest, PreExpiredTokenAbortsContainment) {
  Schema schema = MustParseSchema(HeavySchemaText(8));
  ConjunctiveQuery q1 = MustParseQuery(schema, HeavyQ1(8));
  ConjunctiveQuery q2 = MustParseQuery(schema, HeavyQ2());
  CancellationToken expired = CancellationToken::AfterMillis(0);
  ContainmentOptions options;
  options.cancel = &expired;
  StatusOr<bool> verdict = Contained(schema, q1, q2, options);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(IsRetryable(verdict.status().code()));
}

TEST(ServiceDeadlineTest, DeadlineExpiresMidContainment) {
  OocqService service(SlowServiceOptions());
  StatusOr<std::string> sid = service.CreateSession(SlowSchemaText());
  OOCQ_ASSERT_OK(sid.status());

  // SlowQ1(kSlowN) runs for seconds — the deadline trips inside it.
  Response expired = service.Execute(
      MakeContain(*sid, SlowQ1(kSlowN), SlowQ2(), kSlowDeadlineMs));
  EXPECT_EQ(expired.status.code(), StatusCode::kDeadlineExceeded)
      << expired.status.ToString();
  EXPECT_TRUE(IsRetryable(expired.status.code()));
  ExpectCompiledScan(service);

  // Sanity: the same query shape at a small n decides quickly.
  StatusOr<std::string> small = service.CreateSession(SlowSchemaText());
  OOCQ_ASSERT_OK(small.status());
  Response quick = service.Execute(MakeContain(*small, SlowQ1(3), SlowQ2()));
  OOCQ_ASSERT_OK(quick.status);
  EXPECT_TRUE(quick.verdict);

  // The expired decision was not memoized: the session still answers.
  Response after = service.Execute(MakeContain(*sid, SlowQ1(3), SlowQ2()));
  OOCQ_ASSERT_OK(after.status);
}

TEST(ServiceDeadlineTest, QueuedRequestExpiresBeforeStarting) {
  ServiceOptions options = SlowServiceOptions();
  options.max_in_flight = 1;
  options.max_queue_depth = 4;
  OocqService service(options);
  StatusOr<std::string> sid = service.CreateSession(SlowSchemaText());
  OOCQ_ASSERT_OK(sid.status());

  // Occupy the only worker with a slow request whose own 250 ms deadline
  // bounds the test's runtime.
  std::thread occupant([&service, &sid] {
    Response heavy = service.Execute(
        MakeContain(*sid, SlowQ1(kSlowN), SlowQ2(), /*deadline_ms=*/250));
    EXPECT_EQ(heavy.status.code(), StatusCode::kDeadlineExceeded);
  });
  AwaitStarted(service, 1);

  // Queued behind a worker that stays busy far past 1 ms: by start time
  // the deadline has passed, and the queue-expiry precheck answers
  // without touching the engine.
  Response queued = service.Execute(
      MakeContain(*sid, SlowQ1(3), SlowQ2(), /*deadline_ms=*/1));
  EXPECT_EQ(queued.status.code(), StatusCode::kDeadlineExceeded);
  occupant.join();
  ExpectCompiledScan(service);
}

// ---- EXPLAIN narrates the production decision: Contained() under the
// request's options, so budgets, deadlines and the compiled scan apply.

TEST(ServiceExplainTest, BudgetCapsExplain) {
  ServiceOptions options;
  options.budget.max_subset_work_units = 1 << 10;
  OocqService service(options);
  StatusOr<std::string> sid = service.CreateSession(HeavySchemaText(14));
  OOCQ_ASSERT_OK(sid.status());
  // 2^13 masks against a 2^10 budget.
  Response capped =
      service.Execute(MakeExplain(*sid, HeavyQ1(14), HeavyQ2()));
  EXPECT_EQ(capped.status.code(), StatusCode::kResourceExhausted)
      << capped.status.ToString();
}

TEST(ServiceExplainTest, ExplainNormalizesLikeContain) {
  OocqService service;
  ProtocolHandler handler(&service);
  ProtocolReply created = handler.Handle(
      ParseCommandLine("SESSION NEW"),
      Payload({"schema S {", "  class D { }", "  class C { A: D; }", "}"}));
  ASSERT_EQ(created.text, "OK session=s1\n.\n");
  // y has no range atom until NormalizeToWellFormed infers y in D.
  const std::vector<std::string> pair = {"{ x | exists y (x in C & y = x.A) }",
                                         "{ x | x in C }"};
  ProtocolReply contained =
      handler.Handle(ParseCommandLine("CONTAIN s1"), pair);
  EXPECT_EQ(contained.text, "OK contained=1\n.\n");
  ProtocolReply explained =
      handler.Handle(ParseCommandLine("EXPLAIN s1"), pair);
  EXPECT_EQ(explained.text.rfind("OK contained=1\n", 0), 0u) << explained.text;
}

TEST(ServiceExplainTest, ExplainRunsTheCompiledScanAndCountsItsSpec) {
  OocqService service;
  StatusOr<std::string> sid = service.CreateSession(HeavySchemaText(14));
  OOCQ_ASSERT_OK(sid.status());
  Response explained =
      service.Execute(MakeExplain(*sid, HeavyQ1(14), HeavyQ2()));
  OOCQ_ASSERT_OK(explained.status);
  EXPECT_TRUE(explained.verdict);
  EXPECT_NE(explained.body.find("Corollary 3.2"), std::string::npos);
  ExpectCompiledScan(service);
  // The same containment/<spec> counter CONTAIN's decision increments.
  EXPECT_EQ(service.metrics().CounterValue("containment/cor32"), 1u);
  Response contained =
      service.Execute(MakeContain(*sid, HeavyQ1(14), HeavyQ2()));
  OOCQ_ASSERT_OK(contained.status);
  EXPECT_EQ(service.metrics().CounterValue("containment/cor32"), 2u);
}

TEST(ServiceExplainTest, DeadlineExpiresMidExplain) {
  OocqService service(SlowServiceOptions());
  StatusOr<std::string> sid = service.CreateSession(SlowSchemaText());
  OOCQ_ASSERT_OK(sid.status());
  Response expired = service.Execute(
      MakeExplain(*sid, SlowQ1(kSlowN), SlowQ2(), kSlowDeadlineMs));
  EXPECT_EQ(expired.status.code(), StatusCode::kDeadlineExceeded)
      << expired.status.ToString();
  ExpectCompiledScan(service);
}

TEST(ServiceAdmissionTest, ShedsUnderOverloadAndRecovers) {
  ServiceOptions options = SlowServiceOptions();
  options.max_in_flight = 1;
  options.max_queue_depth = 0;  // capacity: exactly one admitted request
  OocqService service(options);
  StatusOr<std::string> sid = service.CreateSession(SlowSchemaText());
  OOCQ_ASSERT_OK(sid.status());

  std::thread occupant([&service, &sid] {
    Response heavy = service.Execute(
        MakeContain(*sid, SlowQ1(kSlowN), SlowQ2(), /*deadline_ms=*/250));
    EXPECT_EQ(heavy.status.code(), StatusCode::kDeadlineExceeded);
  });
  AwaitStarted(service, 1);

  Response shed = service.Execute(MakeContain(*sid, SlowQ1(3), SlowQ2()));
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable)
      << shed.status.ToString();
  EXPECT_TRUE(IsRetryable(shed.status.code()));
  EXPECT_GE(service.metrics().CounterValue("server/shed"), 1u);
  occupant.join();
  ExpectCompiledScan(service);

  // Capacity freed: the retry the status promised now succeeds.
  Response retry = service.Execute(MakeContain(*sid, SlowQ1(3), SlowQ2()));
  OOCQ_ASSERT_OK(retry.status);
  EXPECT_TRUE(retry.verdict);
}

TEST(ServiceBatchTest, BatchMatchesSequentialExecution) {
  std::vector<Request> batch;
  auto build_requests = [&batch](const std::string& sid) {
    batch.clear();
    Request contain = MakeContain(
        sid,
        "{ x | exists y (x in Auto & y in Discount & x in y.VehRented) }",
        "{ x | exists y (x in Vehicle & y in Client & x in y.VehRented) }");
    batch.push_back(contain);
    Request not_contained = MakeContain(sid, "{ x | x in Vehicle }",
                                        "{ x | x in Truck }");
    batch.push_back(not_contained);
    Request equiv = MakeContain(
        sid,
        "{ x | exists y (x in Vehicle & y in Discount & x in y.VehRented) }",
        "{ x | exists y (x in Auto & y in Discount & x in y.VehRented) }");
    equiv.kind = RequestKind::kEquivalent;
    batch.push_back(equiv);
    Request sat;
    sat.kind = RequestKind::kSatisfiable;
    sat.session_id = sid;
    sat.query =
        "{ x | exists y (x in Trailer & y in Discount & x in y.VehRented) }";
    batch.push_back(sat);
    Request bad = MakeContain(sid, "@missing", "{ x | x in Auto }");
    batch.push_back(bad);
    // Duplicates exercise the shared cache under concurrent execution.
    batch.push_back(contain);
    batch.push_back(not_contained);
    batch.push_back(equiv);
  };

  // Sequential reference on its own service.
  std::vector<Response> expected;
  {
    OocqService sequential;
    StatusOr<std::string> sid = sequential.CreateSession(kVehicleRentalSchema);
    OOCQ_ASSERT_OK(sid.status());
    build_requests(*sid);
    for (const Request& request : batch) {
      expected.push_back(sequential.Execute(request));
    }
  }

  ServiceOptions options;
  options.max_in_flight = 4;
  OocqService service(options);
  StatusOr<std::string> sid = service.CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(sid.status());
  build_requests(*sid);
  std::vector<Response> responses = service.ExecuteBatch(batch);

  ASSERT_EQ(responses.size(), expected.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].status.code(), expected[i].status.code())
        << "request " << i << ": " << responses[i].status.ToString();
    EXPECT_EQ(responses[i].verdict, expected[i].verdict) << "request " << i;
  }
}

// Batch items run the same per-request body as Execute: each records its
// queue wait and reaches the slow-request log.
TEST(ServiceBatchTest, BatchItemsGetPerRequestTelemetry) {
  ServiceOptions options;
  options.slow_request_us = 1;
  OocqService service(options);
  StatusOr<std::string> sid = service.CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(sid.status());
  std::vector<Response> responses = service.ExecuteBatch(
      {MakeContain(*sid, "{ x | x in Auto }", "{ x | x in Vehicle }"),
       MakeContain(*sid, "{ x | x in Vehicle }", "{ x | x in Auto }")});
  ASSERT_EQ(responses.size(), 2u);
  OOCQ_EXPECT_OK(responses[0].status);
  OOCQ_EXPECT_OK(responses[1].status);
  EXPECT_EQ(service.metrics().CounterValue("server/slow_requests"), 2u);
  EXPECT_EQ(HistogramCount(service, "server/queue_wait_us"), 2u);
}

TEST(ServiceDrainTest, DrainRefusesNewWork) {
  OocqService service;
  StatusOr<std::string> sid = service.CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(sid.status());
  service.Drain();
  EXPECT_TRUE(service.draining());
  Response refused = service.Execute(
      MakeContain(*sid, "{ x | x in Auto }", "{ x | x in Vehicle }"));
  EXPECT_EQ(refused.status.code(), StatusCode::kUnavailable);
}

// ---- The protocol layer over the same service, no sockets involved ----

// ---- @name operands: the expansion slot ------------------------------------

constexpr char kLeafSchema[] =
    "schema S { class A { } class A1 under A { } class A2 under A { } }";

// Prop 2.1 expands `{ x | x in A }` to 2 terminal disjuncts and
// `{ x | exists y (x in A & y in A) }` to 4, and each contains the other.
constexpr char kTwoWay[] = "{ x | x in A }";
constexpr char kFourWay[] = "{ x | exists y (x in A & y in A) }";

// The first requests that resolve two names race to expand them: each is
// expanded exactly once, never at DEFINE, and every racer gets the same
// verdict.
TEST(ServicePreparedTest, ConcurrentFirstUseExpandsEachNameOnce) {
  ServiceOptions options;
  options.max_in_flight = 8;
  OocqService service(options);
  StatusOr<std::string> sid = service.CreateSession(kLeafSchema);
  OOCQ_ASSERT_OK(sid.status());
  OOCQ_ASSERT_OK(service.DefineQuery(*sid, "a", kTwoWay));
  OOCQ_ASSERT_OK(service.DefineQuery(*sid, "b", kFourWay));
  EXPECT_EQ(service.metrics().CounterValue("expand/raw_disjuncts"), 0u);

  std::vector<Response> responses(8);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < responses.size(); ++i) {
    threads.emplace_back([&, i] {
      responses[i] = service.Execute(MakeContain(*sid, "@a", "@b"));
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Response& response : responses) {
    OOCQ_EXPECT_OK(response.status);
    EXPECT_TRUE(response.verdict);
  }
  EXPECT_EQ(service.metrics().CounterValue("expand/raw_disjuncts"), 2u + 4u);

  // Later requests reuse both expansions.
  Response again = service.Execute(MakeContain(*sid, "@b", "@a"));
  OOCQ_ASSERT_OK(again.status);
  EXPECT_TRUE(again.verdict);
  EXPECT_EQ(service.metrics().CounterValue("expand/raw_disjuncts"), 2u + 4u);
}

// A cache-hot decision on @names runs no Thm 2.2 check: the slot's
// disjuncts carry the facts the expansion's prune established, and a
// cached verdict needs only their keys.
TEST(ServicePreparedTest, CacheHotDecisionsRunNoSatisfiabilityCheck) {
  ServiceOptions options;
  options.metrics = false;
  OocqService service(options);
  StatusOr<std::string> sid = service.CreateSession(kLeafSchema);
  OOCQ_ASSERT_OK(sid.status());
  OOCQ_ASSERT_OK(service.DefineQuery(*sid, "a", kTwoWay));
  OOCQ_ASSERT_OK(service.DefineQuery(*sid, "b", kFourWay));
  Request equivalent = MakeContain(*sid, "@a", "@b");
  equivalent.kind = RequestKind::kEquivalent;
  const std::vector<Request> requests = {
      MakeContain(*sid, "@a", "@b"), MakeContain(*sid, "@b", "@a"),
      equivalent};
  // Warm-up: fills both slots and the cache with every pair.
  for (const Request& request : requests) {
    Response response = service.Execute(request);
    OOCQ_ASSERT_OK(response.status);
    EXPECT_TRUE(response.verdict);
  }

  MetricsRegistry registry;
  {
    MetricsScope scope(&registry);
    ASSERT_TRUE(scope.active());
    for (int round = 0; round < 3; ++round) {
      for (const Request& request : requests) {
        Response response = service.Execute(request);
        OOCQ_ASSERT_OK(response.status);
        EXPECT_TRUE(response.verdict);
      }
    }
  }
  EXPECT_GT(registry.CounterValue("cache/hit"), 0u);
  EXPECT_EQ(registry.CounterValue("cache/miss"), 0u);
  EXPECT_EQ(registry.CounterValue("satisfiability/checks"), 0u);
}

// A redefinition replaces the expansion with the text: no request after
// the DEFINE sees the old one.
TEST(ServicePreparedTest, RedefinitionReplacesTheExpansion) {
  OocqService service;
  StatusOr<std::string> sid = service.CreateSession(kLeafSchema);
  OOCQ_ASSERT_OK(sid.status());
  OOCQ_ASSERT_OK(service.DefineQuery(*sid, "b", "{ x | x in A1 }"));
  OOCQ_ASSERT_OK(service.DefineQuery(
      *sid, "a", "{ x | exists y (x in A1 & y in A2) }"));
  Response contained = service.Execute(MakeContain(*sid, "@a", "@b"));
  OOCQ_ASSERT_OK(contained.status);
  EXPECT_TRUE(contained.verdict);

  OOCQ_ASSERT_OK(service.DefineQuery(*sid, "a", kTwoWay));
  Response redefined = service.Execute(MakeContain(*sid, "@a", "@b"));
  OOCQ_ASSERT_OK(redefined.status);
  EXPECT_FALSE(redefined.verdict);
}

// A reused expansion is charged to the request's budget as a fresh one
// would be: a budget below the operands' raw disjunct count refuses the
// request that expands them and the request that reuses one of them, and
// each returns its charge.
TEST(ServicePreparedTest, ReusedExpansionChargesTheBudget) {
  ServiceOptions options;
  options.budget.max_expanded_disjuncts = 2 + 4 - 1;
  OocqService service(options);
  StatusOr<std::string> sid = service.CreateSession(kLeafSchema);
  OOCQ_ASSERT_OK(sid.status());
  OOCQ_ASSERT_OK(service.DefineQuery(*sid, "a", kTwoWay));
  OOCQ_ASSERT_OK(service.DefineQuery(*sid, "b", kFourWay));
  for (int attempt = 0; attempt < 2; ++attempt) {
    Response refused = service.Execute(MakeContain(*sid, "@a", "@b"));
    EXPECT_EQ(refused.status.code(), StatusCode::kResourceExhausted)
        << attempt << ": " << refused.status.ToString();
    EXPECT_EQ(service.CollectHealth().disjuncts, 0u) << attempt;
  }
  // `a` alone fits: its expansion, kept from the first attempt, serves.
  Response fits = service.Execute(MakeContain(*sid, "@a", "@a"));
  OOCQ_ASSERT_OK(fits.status);
  EXPECT_TRUE(fits.verdict);
  EXPECT_EQ(service.CollectHealth().disjuncts, 0u);
}

// Cache keys keep their bytes: `len(k1) ":" k1 k2` over the CanonicalKey
// of each side's expanded disjunct. A cache entry filed under that key
// with the wrong verdict is what CONTAIN answers, for @name operands and
// for the same texts inline, on the first request and on later ones.
TEST(ServicePreparedTest, PersistedCacheKeysAreByteIdentical) {
  const char* a = "{ x | exists y (x in A1 & y in A2) }";
  const char* b = "{ x | x in A1 }";
  Schema schema = MustParseSchema(kLeafSchema);
  auto key_of = [&](const char* text) {
    StatusOr<TerminalExpansion> expanded =
        NormalizeAndExpand(schema, MustParseQuery(schema, text));
    EXPECT_TRUE(expanded.ok() && expanded->pruned.size() == 1u) << text;
    return expanded.ok() ? CanonicalKey(expanded->pruned[0].query()) : "";
  };
  const std::string k1 = key_of(a);
  const std::string key = std::to_string(k1.size()) + ":" + k1 + key_of(b);

  OocqService service;
  StatusOr<std::string> sid = service.CreateSession(kLeafSchema);
  OOCQ_ASSERT_OK(sid.status());
  OOCQ_ASSERT_OK(service.DefineQuery(*sid, "a", a));
  OOCQ_ASSERT_OK(service.DefineQuery(*sid, "b", b));
  Response truth = service.Execute(MakeContain(*sid, a, b));
  OOCQ_ASSERT_OK(truth.status);
  EXPECT_TRUE(truth.verdict);

  StatusOr<std::string> poisoned = service.CreateSession(kLeafSchema);
  OOCQ_ASSERT_OK(poisoned.status());
  OOCQ_ASSERT_OK(service.DefineQuery(*poisoned, "a", a));
  OOCQ_ASSERT_OK(service.DefineQuery(*poisoned, "b", b));
  OOCQ_ASSERT_OK(
      service.ApplyReplicated({.type = persist::RecordType::kCacheEntry,
                               .session_id = *poisoned,
                               .text = key,
                               .verdict = false}));
  for (int round = 0; round < 2; ++round) {
    Response named = service.Execute(MakeContain(*poisoned, "@a", "@b"));
    OOCQ_ASSERT_OK(named.status);
    EXPECT_FALSE(named.verdict) << round;
    Response inline_texts = service.Execute(MakeContain(*poisoned, a, b));
    OOCQ_ASSERT_OK(inline_texts.status);
    EXPECT_FALSE(inline_texts.verdict) << round;
  }
}

TEST(ProtocolTest, ParseCommandLineSplitsVerbArgsParams) {
  CommandLine command =
      ParseCommandLine("contain s1 deadline_ms=50 id=req-7");
  EXPECT_EQ(command.verb, "CONTAIN");  // verbs are case-insensitive
  ASSERT_EQ(command.args.size(), 1u);
  EXPECT_EQ(command.args[0], "s1");
  ASSERT_NE(command.Param("deadline_ms"), nullptr);
  EXPECT_EQ(*command.Param("deadline_ms"), "50");
  ASSERT_NE(command.Param("id"), nullptr);
  EXPECT_EQ(*command.Param("id"), "req-7");
  EXPECT_EQ(command.Param("nope"), nullptr);

  EXPECT_TRUE(VerbHasPayload("CONTAIN"));
  EXPECT_TRUE(VerbHasPayload("BATCH"));
  EXPECT_FALSE(VerbHasPayload("PING"));
  EXPECT_FALSE(VerbHasPayload("STATS"));
}

TEST(ProtocolTest, FullConversation) {
  OocqService service;
  ProtocolHandler handler(&service);

  ProtocolReply pong = handler.Handle(ParseCommandLine("PING"), {});
  EXPECT_EQ(pong.text, "OK\n.\n");
  EXPECT_FALSE(pong.close);

  // A needs a second terminal subclass: with A1 alone the extents of A
  // and A1 coincide and every containment below would hold.
  ProtocolReply created = handler.Handle(
      ParseCommandLine("SESSION NEW"),
      Payload({"schema S {", "  class A { }", "  class A1 under A { }",
               "  class A2 under A { }", "}"}));
  EXPECT_EQ(created.text, "OK session=s1\n.\n");

  ProtocolReply contained =
      handler.Handle(ParseCommandLine("CONTAIN s1 id=t1"),
                     Payload({"{ x | x in A1 }", "{ x | x in A }"}));
  EXPECT_EQ(contained.text, "OK contained=1\n.\n");

  ProtocolReply not_contained =
      handler.Handle(ParseCommandLine("CONTAIN s1"),
                     Payload({"{ x | x in A }", "{ x | x in A1 }"}));
  EXPECT_EQ(not_contained.text, "OK contained=0\n.\n");

  ProtocolReply batch = handler.Handle(
      ParseCommandLine("BATCH s1"),
      Payload({"CONTAIN\t{ x | x in A1 }\t{ x | x in A }",
               "CONTAIN\t{ x | x in A }\t{ x | x in A1 }",
               "SAT\t{ x | x in A1 }"}));
  EXPECT_EQ(batch.text, "OK n=3 retryable=0\n101\n.\n");

  ProtocolReply stats = handler.Handle(ParseCommandLine("STATS"), {});
  EXPECT_NE(stats.text.find("\noocq_server_requests "), std::string::npos);

  ProtocolReply parse_error = handler.Handle(
      ParseCommandLine("CONTAIN s1"), Payload({"{ not a query", "x }"}));
  EXPECT_EQ(parse_error.text.rfind("ERR ", 0), 0u) << parse_error.text;

  ProtocolReply unknown = handler.Handle(ParseCommandLine("FROBNICATE"), {});
  EXPECT_EQ(unknown.text.rfind("ERR INVALID_ARGUMENT", 0), 0u);

  ProtocolReply quit = handler.Handle(ParseCommandLine("QUIT"), {});
  EXPECT_TRUE(quit.close);

  ProtocolReply dropped =
      handler.Handle(ParseCommandLine("SESSION DROP s1"), {});
  EXPECT_EQ(dropped.text, "OK\n.\n");
}

TEST(ProtocolTest, DeadlineParamSurfacesRetryableError) {
  OocqService service(SlowServiceOptions());
  ProtocolHandler handler(&service);
  ProtocolReply created = handler.Handle(ParseCommandLine("SESSION NEW"),
                                         Payload({SlowSchemaText()}));
  ASSERT_EQ(created.text, "OK session=s1\n.\n");
  ProtocolReply expired = handler.Handle(
      ParseCommandLine("CONTAIN s1 deadline_ms=" +
                       std::to_string(kSlowDeadlineMs)),
      {SlowQ1(kSlowN), SlowQ2()});
  EXPECT_EQ(expired.text.rfind("ERR DEADLINE_EXCEEDED", 0), 0u)
      << expired.text;
  ExpectCompiledScan(service);
}

}  // namespace
}  // namespace oocq::server
