// The chaos suite (ctest -L chaos, docs/robustness.md): every registered
// failpoint fires at least once across a full catalog + service + TCP
// workload with verdicts identical to a fault-free run; injected
// transient faults degrade with retryable statuses and the next attempt
// recovers; and resource budgets turn the 2^|T| subset scan into a
// retryable RESOURCE_EXHAUSTED instead of unbounded work.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/optimizer.h"
#include "persist/catalog.h"
#include "replicate/fence.h"
#include "server/event_server.h"
#include "server/service.h"
#include "support/failpoint.h"
#include "support/file.h"
#include "support/metrics.h"
#include "support/resource_budget.h"
#include "test_util.h"

namespace oocq::server {
namespace {

using persist::DurableCatalog;
using persist::DurableCatalogOptions;
using ::oocq::testing::HeavyQ1;
using ::oocq::testing::HeavyQ2;
using ::oocq::testing::HeavySchemaText;
using ::oocq::testing::MustParseQuery;
using ::oocq::testing::MustParseSchema;

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::Reset(); }
  void TearDown() override { Failpoints::Reset(); }
};

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "oocq_chaos_" + name;
  StatusOr<std::vector<std::string>> names = ListDir(dir);
  if (names.ok()) {
    for (const std::string& file : *names) {
      (void)RemoveFileIfExists(dir + "/" + file);
    }
  }
  EXPECT_TRUE(MakeDirs(dir).ok());
  return dir;
}

std::shared_ptr<DurableCatalog> MustOpen(const std::string& dir) {
  DurableCatalogOptions options;
  options.data_dir = dir;
  options.snapshot_interval_s = 0;
  options.group_commit_window_us = 0;
  StatusOr<std::unique_ptr<DurableCatalog>> catalog =
      DurableCatalog::Open(std::move(options));
  OOCQ_EXPECT_OK(catalog.status());
  return catalog.ok() ? std::shared_ptr<DurableCatalog>(*std::move(catalog))
                      : nullptr;
}

/// A blocking test client over a real socket, reading "."-framed replies.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  bool Send(const std::string& text) {
    return ::send(fd_, text.data(), text.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(text.size());
  }

  std::string ReadReply() {
    std::string reply;
    size_t line_start = 0;
    while (true) {
      size_t nl;
      while ((nl = buffer_.find('\n', line_start)) != std::string::npos) {
        std::string line = buffer_.substr(line_start, nl - line_start);
        line_start = nl + 1;
        if (line == ".") {
          reply = buffer_.substr(0, line_start);
          buffer_.erase(0, line_start);
          return reply;
        }
      }
      line_start = buffer_.size();
      char chunk[4096];
      ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(got));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

constexpr const char* kSchemaPayload =
    "schema S {\n"
    "  class A { }\n"
    "  class A1 under A { }\n"
    "  class A2 under A { }\n"
    "}\n"
    ".\n";

// Every failpoint in Failpoints::KnownNames() fires (delay:0 — a no-op
// action, so this doubles as the fault-free baseline) across one
// catalog-backed service + TCP workload, and the verdicts are the ones
// a run without any failpoints produces.
TEST_F(ChaosTest, EveryKnownFailpointFiresAcrossTheStack) {
  std::string spec;
  for (const std::string& name : Failpoints::KnownNames()) {
    if (!spec.empty()) spec += ",";
    spec += name + "=delay:0";
  }
  OOCQ_ASSERT_OK(Failpoints::Configure(spec));

  const std::string dir = FreshDir("coverage");
  {
    ServiceOptions service_options;
    service_options.catalog = MustOpen(dir);  // fires snapshot/load
    OocqService service(service_options);
    EventServer server(&service);
    OOCQ_ASSERT_OK(server.Start());

    TestClient client(server.port());  // fires tcp/accept
    ASSERT_TRUE(client.connected());
    // SESSION NEW logs through the WAL: wal/append + wal/fsync. The
    // reads and the replies fire tcp/read / tcp/write.
    client.Send(std::string("SESSION NEW\n") + kSchemaPayload);
    EXPECT_EQ(client.ReadReply().rfind("OK session=s1", 0), 0u);
    // CONTAIN fires service/execute, pool/dispatch, cache/lookup and
    // core/subset_scan — and must still answer exactly contained=1.
    client.Send("CONTAIN s1\n{ x | x in A1 }\n{ x | x in A }\n.\n");
    EXPECT_EQ(client.ReadReply().rfind("OK contained=1", 0), 0u);
    client.Send("CONTAIN s1\n{ x | x in A1 }\n{ x | x in A2 }\n.\n");
    EXPECT_EQ(client.ReadReply().rfind("OK contained=0", 0), 0u);
    // STATE + EVAL run the evaluation VM with every point armed.
    client.Send("STATE s1\nstate { o1: A1 { } }\n.\n");
    EXPECT_EQ(client.ReadReply().rfind("OK", 0), 0u);
    client.Send("EVAL s1\n{ x | x in A }\n.\n");
    EXPECT_EQ(client.ReadReply().rfind("OK", 0), 0u);
    // REPL STATE fires repl/ship (the WAL-shipping gate).
    client.Send("REPL STATE\n");
    EXPECT_EQ(client.ReadReply().rfind("OK epoch=", 0), 0u);
    client.Send("QUIT\n");
    client.ReadReply();
    // The router's probe path dials through the net/partition seam (the
    // labeled per-peer black-hole, docs/robustness.md#partitions).
    replicate::PeerStatus probed = replicate::ProbePeer(
        "127.0.0.1:" + std::to_string(server.port()), 1000);
    EXPECT_TRUE(probed.reachable);
    server.Stop();

    // The follower-side points: applying a shipped record fires
    // repl/apply; an actual readonly → primary transition fires
    // repl/promote.
    persist::Record shipped;
    shipped.type = persist::RecordType::kDefineQuery;
    shipped.session_id = "s1";
    shipped.name = "shipped";
    shipped.text = "{ x | x in A1 }";
    OOCQ_EXPECT_OK(service.ApplyReplicated(shipped));
    // Observing a higher replication term fences the primary: fires
    // repl/fence on the step-down path.
    OOCQ_EXPECT_OK(service.Demote(2, ""));
    EXPECT_TRUE(service.fenced());
    ServiceOptions follower_options;
    follower_options.read_only = true;
    OocqService follower(follower_options);
    OOCQ_EXPECT_OK(follower.Promote());
    // ~OocqService takes the final snapshot: fires snapshot/write.
  }

  std::vector<std::string> hit = Failpoints::HitNames();
  for (const std::string& name : Failpoints::KnownNames()) {
    EXPECT_NE(std::find(hit.begin(), hit.end(), name), hit.end())
        << "failpoint never fired: " << name;
  }
}

// An injected transient fault in the request path degrades with a
// retryable status; the next attempt recovers with the right verdict —
// the server-side half of the oocq_client --retries contract.
TEST_F(ChaosTest, InjectedExecuteFaultIsRetryableAndRecovers) {
  ServiceOptions service_options;
  service_options.failpoints = "service/execute=error@1";
  OocqService service(service_options);
  StatusOr<std::string> sid = service.CreateSession(
      "schema S { class A { } class A1 under A { } }");
  OOCQ_ASSERT_OK(sid.status());

  Request request;
  request.kind = RequestKind::kContained;
  request.session_id = *sid;
  request.query = "{ x | x in A1 }";
  request.query2 = "{ x | x in A }";

  Response faulted = service.Execute(request);
  EXPECT_EQ(faulted.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(IsRetryable(faulted.status.code()));

  Response retried = service.Execute(request);
  OOCQ_EXPECT_OK(retried.status);
  EXPECT_TRUE(retried.verdict);
}

// A WAL fsync fault fails the mutation cleanly — the session is rolled
// back, not half-registered — and the retry succeeds and persists.
TEST_F(ChaosTest, InjectedWalFsyncFaultRollsBackThenRetrySucceeds) {
  const std::string dir = FreshDir("walfault");
  ServiceOptions service_options;
  service_options.catalog = MustOpen(dir);
  service_options.failpoints = "wal/fsync=error@1";
  OocqService service(service_options);

  StatusOr<std::string> failed = service.CreateSession(
      "schema S { class A { } class A1 under A { } }");
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(IsRetryable(failed.status().code())) << failed.status().ToString();
  EXPECT_EQ(service.session_count(), 0u);

  StatusOr<std::string> retried = service.CreateSession(
      "schema S { class A { } class A1 under A { } }");
  OOCQ_ASSERT_OK(retried.status());
  EXPECT_EQ(service.session_count(), 1u);
}

// A retryable injected error is never memoized: the cache recomputes on
// retry instead of serving the fault forever.
TEST_F(ChaosTest, RetryableCacheFaultIsNotMemoized) {
  ServiceOptions service_options;
  service_options.failpoints = "cache/lookup=error@1";
  OocqService service(service_options);
  StatusOr<std::string> sid = service.CreateSession(
      "schema S { class A { } class A1 under A { } }");
  OOCQ_ASSERT_OK(sid.status());

  Request request;
  request.kind = RequestKind::kContained;
  request.session_id = *sid;
  request.query = "{ x | x in A1 }";
  request.query2 = "{ x | x in A }";

  Response faulted = service.Execute(request);
  EXPECT_TRUE(IsRetryable(faulted.status.code())) << faulted.status.ToString();
  Response retried = service.Execute(request);
  OOCQ_EXPECT_OK(retried.status);
  EXPECT_TRUE(retried.verdict);
}

// The budget-capped 2^|T| workload: a subset-work ceiling turns the
// Cor 3.2 exponential scan into a prompt retryable RESOURCE_EXHAUSTED
// with bounded work, and the OptimizeReport records the enforcement.
TEST_F(ChaosTest, BudgetCapsTheExponentialSubsetScan) {
  const int k = 20;  // up to 2^19 masks unbounded
  Schema schema = MustParseSchema(HeavySchemaText(k));
  ConjunctiveQuery q1 = MustParseQuery(schema, HeavyQ1(k));
  ConjunctiveQuery q2 = MustParseQuery(schema, HeavyQ2());

  MetricsRegistry registry;
  MetricsScope scope(&registry);
  ASSERT_TRUE(scope.active());
  EngineOptions options;
  options.limits.max_subset_work_units = 1 << 10;
  QueryOptimizer optimizer(schema, options);
  StatusOr<bool> refused = optimizer.IsContained(q1, q2);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(IsRetryable(refused.status().code()));
  EXPECT_NE(refused.status().message().find("max_subset_work_units"),
            std::string::npos);
  // The budget capped the production (compiled) scan.
  EXPECT_GE(registry.CounterValue("compile/mask_scans"), 1u);
}

// The same cap through the service: every over-budget item of a BATCH is
// shed item-by-item with RESOURCE_EXHAUSTED (surfaced in retryable=),
// while cheap items in the same batch still succeed.
TEST_F(ChaosTest, OversizedBatchIsShedItemByItem) {
  const int k = 16;
  ServiceOptions service_options;
  service_options.max_in_flight = 1;  // serialize: each item gets the
                                      // full (released) budget window
  service_options.budget.max_subset_work_units = 1 << 10;
  OocqService service(service_options);
  StatusOr<std::string> sid = service.CreateSession(HeavySchemaText(k));
  OOCQ_ASSERT_OK(sid.status());

  Request heavy;
  heavy.kind = RequestKind::kContained;
  heavy.session_id = *sid;
  heavy.query = HeavyQ1(k);
  heavy.query2 = HeavyQ2();
  Request cheap;
  cheap.kind = RequestKind::kSatisfiable;
  cheap.session_id = *sid;
  cheap.query = "{ x | x in D }";

  std::vector<Response> responses =
      service.ExecuteBatch({heavy, cheap, heavy, cheap});
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kResourceExhausted);
  OOCQ_EXPECT_OK(responses[1].status);
  EXPECT_TRUE(responses[1].verdict);
  EXPECT_EQ(responses[2].status.code(), StatusCode::kResourceExhausted);
  OOCQ_EXPECT_OK(responses[3].status);
  // The shed requests count on the retryable metrics the STATS verb
  // (and the BATCH retryable= field) surface.
  EXPECT_GE(service.metrics().CounterValue("server/resource_exhausted"), 2u);
  // Both heavy items were capped inside the compiled scan.
  EXPECT_GE(service.metrics().CounterValue("compile/mask_scans"), 1u);
}

// HEALTH over the wire: pending/completed/draining/sessions plus the
// budget line when a service-wide budget is armed.
TEST_F(ChaosTest, HealthVerbReportsProgressAndBudget) {
  ServiceOptions service_options;
  service_options.budget.max_resident_bytes = 1 << 20;
  OocqService service(service_options);
  EventServer server(&service);
  OOCQ_ASSERT_OK(server.Start());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  client.Send(std::string("SESSION NEW\n") + kSchemaPayload);
  ASSERT_EQ(client.ReadReply().rfind("OK session=", 0), 0u);
  // One executed request so the progress counter is nonzero (session
  // mutations are registry operations, not pooled requests).
  client.Send("CONTAIN s1\n{ x | x in A1 }\n{ x | x in A }\n.\n");
  ASSERT_EQ(client.ReadReply().rfind("OK contained=1", 0), 0u);
  client.Send("HEALTH\n");
  std::string health = client.ReadReply();
  EXPECT_EQ(health.rfind("OK pending=", 0), 0u) << health;
  EXPECT_NE(health.find(" completed=1"), std::string::npos) << health;
  EXPECT_NE(health.find(" draining=0"), std::string::npos) << health;
  EXPECT_NE(health.find(" sessions=1"), std::string::npos) << health;
  EXPECT_NE(health.find("budget: resident_bytes="), std::string::npos)
      << health;
  client.Send("QUIT\n");
  client.ReadReply();
  server.Stop();
}

// The resident-bytes axis: a catalog cap refuses new sessions with a
// retryable status, and dropping a session returns its bytes.
TEST_F(ChaosTest, ResidentBytesCapRefusesAndDropReleases) {
  ServiceOptions service_options;
  service_options.budget.max_resident_bytes = 64;
  OocqService service(service_options);

  const std::string schema_text =
      "schema S { class A { } class A1 under A { } }";  // 45 bytes
  StatusOr<std::string> first = service.CreateSession(schema_text);
  OOCQ_ASSERT_OK(first.status());

  StatusOr<std::string> refused = service.CreateSession(schema_text);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.session_count(), 1u);

  OOCQ_ASSERT_OK(service.DropSession(*first));
  StatusOr<std::string> after_drop = service.CreateSession(schema_text);
  OOCQ_ASSERT_OK(after_drop.status());
}

}  // namespace
}  // namespace oocq::server
