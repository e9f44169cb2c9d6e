// Replication end to end, in one process (docs/replication.md): a
// primary service behind an EventServer, a follower service tailing it
// through replicate::Follower over real sockets. Asserts the acceptance
// flow of the subsystem: the follower converges on the primary's catalog
// and serves the identical CONTAIN verdict read-only; mutations on the
// follower answer FAILED_PRECONDITION; killing the primary and promoting
// turns the follower into a primary whose accepted writes are durable in
// its own WAL (replay == acked holds across the role change).

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "persist/catalog.h"
#include "replicate/follower.h"
#include "server/event_server.h"
#include "server/service.h"
#include "support/failpoint.h"
#include "support/file.h"
#include "test_util.h"

namespace oocq::server {
namespace {

using ::oocq::replicate::Follower;
using ::oocq::replicate::FollowerOptions;
using ::oocq::testing::kVehicleRentalSchema;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "oocq_repl_e2e_" + name;
  StatusOr<std::vector<std::string>> names = ListDir(dir);
  if (names.ok()) {
    for (const std::string& file : *names) {
      (void)RemoveFileIfExists(dir + "/" + file);
    }
  }
  EXPECT_TRUE(MakeDirs(dir).ok());
  return dir;
}

std::shared_ptr<persist::DurableCatalog> OpenCatalog(const std::string& dir) {
  persist::DurableCatalogOptions options;
  options.data_dir = dir;
  options.snapshot_interval_s = 0;  // compaction only when the test asks
  StatusOr<std::unique_ptr<persist::DurableCatalog>> opened =
      persist::DurableCatalog::Open(options);
  OOCQ_EXPECT_OK(opened.status());
  return opened.ok() ? std::shared_ptr<persist::DurableCatalog>(
                           *std::move(opened))
                     : nullptr;
}

/// Polls `predicate` for up to ~5s — replication is asynchronous, so the
/// assertions below wait for convergence instead of sleeping blind.
bool Eventually(const std::function<bool()>& predicate) {
  for (int i = 0; i < 500; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return predicate();
}

Request ContainRequest(const std::string& sid) {
  Request request;
  request.kind = RequestKind::kContained;
  request.session_id = sid;
  request.query = "{ x | x in Auto }";
  request.query2 = "{ x | x in Vehicle }";
  return request;
}

TEST(ReplEndToEndTest, FollowerTailsServesReadOnlyAndPromotes) {
  // ---- Follower: read-only service, constructed FIRST ----
  // Two services share this process, and the first one claims the
  // process-wide metrics scope. The follower outlives the primary here
  // (the whole point is surviving its death), so it must be the scope
  // owner — otherwise its worker threads would record into the dead
  // primary's registry.
  std::string follower_dir = FreshDir("follower");
  ServiceOptions follower_options;
  follower_options.catalog = OpenCatalog(follower_dir);
  ASSERT_NE(follower_options.catalog, nullptr);
  follower_options.read_only = true;
  auto follower_service = std::make_unique<OocqService>(follower_options);
  EXPECT_TRUE(follower_service->read_only());

  // ---- Primary: service + transport with a durable catalog ----
  std::string primary_dir = FreshDir("primary");
  ServiceOptions primary_options;
  primary_options.catalog = OpenCatalog(primary_dir);
  ASSERT_NE(primary_options.catalog, nullptr);
  auto primary = std::make_unique<OocqService>(primary_options);

  EventServerOptions transport_options;
  transport_options.dispatch_threads = 4;
  auto transport = std::make_unique<EventServer>(primary.get(),
                                                 transport_options);
  OOCQ_ASSERT_OK(transport->Start());

  // Seed the primary before the follower tails it — this state must
  // arrive via the initial resync (REPL STATE), not the live stream.
  StatusOr<std::string> sid = primary->CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(sid.status());
  OOCQ_ASSERT_OK(primary->DefineQuery(*sid, "autos", "{ x | x in Auto }"));

  // ---- The tail thread ----
  FollowerOptions tail_options;
  tail_options.port = transport->port();
  tail_options.poll_wait_ms = 200;
  auto follower = std::make_unique<Follower>(follower_service.get(),
                                             tail_options);
  follower->Start();

  // Resync delivers the seeded session...
  ASSERT_TRUE(Eventually([&] {
    return follower_service->session_count() == 1 && follower->connected();
  }));

  // ...and the live stream delivers a mutation made after the sync.
  uint64_t before = follower->applied_records();
  OOCQ_ASSERT_OK(
      primary->DefineQuery(*sid, "vehicles", "{ x | x in Vehicle }"));
  ASSERT_TRUE(
      Eventually([&] { return follower->applied_records() > before; }));
  ASSERT_TRUE(Eventually([&] { return follower->lag_records() == 0; }));

  // Identical CONTAIN verdict on both nodes; the follower's health probe
  // reports through the service (HEALTH/STATS feed off the same struct).
  Response primary_verdict = primary->Execute(ContainRequest(*sid));
  Response follower_verdict = follower_service->Execute(ContainRequest(*sid));
  OOCQ_ASSERT_OK(primary_verdict.status);
  OOCQ_ASSERT_OK(follower_verdict.status);
  EXPECT_TRUE(primary_verdict.verdict);
  EXPECT_EQ(follower_verdict.verdict, primary_verdict.verdict);
  ServiceHealth health = follower_service->CollectHealth();
  EXPECT_TRUE(health.repl.present);
  EXPECT_EQ(health.repl.role, "follower");
  EXPECT_TRUE(health.repl.connected);
  const std::string stats = follower_service->StatsText();
  EXPECT_NE(stats.find("oocq_repl_lag_records"), std::string::npos);
  EXPECT_NE(stats.find("oocq_repl_connected 1"), std::string::npos);

  // Mutations on the follower refuse with FAILED_PRECONDITION while the
  // primary lives.
  EXPECT_EQ(follower_service->CreateSession(kVehicleRentalSchema)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(
      follower_service->DefineQuery(*sid, "nope", "{ x | x in Auto }").code(),
      StatusCode::kFailedPrecondition);

  // ---- Primary loss, then promotion ----
  transport->Stop();
  transport.reset();
  primary.reset();

  OOCQ_ASSERT_OK(follower_service->Promote());
  EXPECT_FALSE(follower_service->read_only());
  follower->Stop();

  // The promoted node accepts writes...
  StatusOr<std::string> new_sid =
      follower_service->CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(new_sid.status());
  OOCQ_ASSERT_OK(
      follower_service->DefineQuery(*new_sid, "q", "{ x | x in Truck }"));
  Response after = follower_service->Execute(ContainRequest(*sid));
  OOCQ_ASSERT_OK(after.status);
  EXPECT_TRUE(after.verdict);

  // ...and replay == acked held throughout: a fresh service over the
  // follower's own data dir recovers both the replicated session and the
  // post-promotion one, with the same verdict.
  follower.reset();
  follower_service.reset();
  ServiceOptions reopened_options;
  reopened_options.catalog = OpenCatalog(follower_dir);
  ASSERT_NE(reopened_options.catalog, nullptr);
  OocqService reopened(reopened_options);
  EXPECT_EQ(reopened.session_count(), 2u);
  Response recovered = reopened.Execute(ContainRequest(*sid));
  OOCQ_ASSERT_OK(recovered.status);
  EXPECT_TRUE(recovered.verdict);
}

TEST(ReplEndToEndTest, FollowerResyncsAcrossPrimaryCompaction) {
  // A snapshot on the primary resets its WAL (epoch bump). The follower's
  // next poll gets FAILED_PRECONDITION and must resync — converging on
  // the post-compaction catalog without operator help.
  std::string primary_dir = FreshDir("compact_primary");
  ServiceOptions primary_options;
  primary_options.catalog = OpenCatalog(primary_dir);
  ASSERT_NE(primary_options.catalog, nullptr);
  auto primary = std::make_unique<OocqService>(primary_options);
  EventServerOptions transport_options;
  transport_options.dispatch_threads = 2;
  EventServer transport(primary.get(), transport_options);
  OOCQ_ASSERT_OK(transport.Start());

  StatusOr<std::string> sid = primary->CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(sid.status());

  std::string follower_dir = FreshDir("compact_follower");
  ServiceOptions follower_options;
  follower_options.catalog = OpenCatalog(follower_dir);
  ASSERT_NE(follower_options.catalog, nullptr);
  follower_options.read_only = true;
  OocqService follower_service(follower_options);
  FollowerOptions tail_options;
  tail_options.port = transport.port();
  tail_options.poll_wait_ms = 100;
  Follower follower(&follower_service, tail_options);
  follower.Start();
  ASSERT_TRUE(
      Eventually([&] { return follower_service.session_count() == 1; }));
  uint64_t synced_once = follower.resyncs();
  ASSERT_GE(synced_once, 1u);

  // Compact: snapshot + WAL reset, then mutate in the new epoch.
  OOCQ_ASSERT_OK(primary_options.catalog->SnapshotNow());
  OOCQ_ASSERT_OK(
      primary->DefineQuery(*sid, "fresh", "{ x | x in Trailer }"));

  // The follower crosses the epoch: second resync, then the new-epoch
  // mutation lands.
  ASSERT_TRUE(Eventually([&] { return follower.resyncs() > synced_once; }));
  ASSERT_TRUE(Eventually([&] {
    Response r = follower_service.Execute([&] {
      Request request;
      request.kind = RequestKind::kContained;
      request.session_id = *sid;
      request.query = "@fresh";
      request.query2 = "{ x | x in Vehicle }";
      return request;
    }());
    return r.status.ok() && r.verdict;
  }));
  EXPECT_EQ(follower.epoch(), 2u);

  follower.Stop();
  transport.Stop();
}

TEST(ReplEndToEndTest, AutoPromoteOnPrimaryLoss) {
  // Follower service first: it outlives the primary, so it must own the
  // process-wide metrics scope (see the first test).
  std::string follower_dir = FreshDir("auto_follower");
  ServiceOptions follower_options;
  follower_options.catalog = OpenCatalog(follower_dir);
  ASSERT_NE(follower_options.catalog, nullptr);
  follower_options.read_only = true;
  OocqService follower_service(follower_options);

  std::string primary_dir = FreshDir("auto_primary");
  ServiceOptions primary_options;
  primary_options.catalog = OpenCatalog(primary_dir);
  ASSERT_NE(primary_options.catalog, nullptr);
  auto primary = std::make_unique<OocqService>(primary_options);
  EventServerOptions transport_options;
  transport_options.dispatch_threads = 2;
  auto transport = std::make_unique<EventServer>(primary.get(),
                                                 transport_options);
  OOCQ_ASSERT_OK(transport->Start());
  StatusOr<std::string> sid = primary->CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(sid.status());

  FollowerOptions tail_options;
  tail_options.port = transport->port();
  tail_options.poll_wait_ms = 100;
  tail_options.backoff_ms = 20;
  tail_options.backoff_cap_ms = 50;
  tail_options.auto_promote_after_ms = 300;
  Follower follower(&follower_service, tail_options);
  follower.Start();
  ASSERT_TRUE(
      Eventually([&] { return follower_service.session_count() == 1; }));

  // Primary disappears; the follower must promote itself and accept
  // writes — no operator in the loop.
  transport->Stop();
  transport.reset();
  primary.reset();
  ASSERT_TRUE(Eventually([&] { return !follower_service.read_only(); }));
  StatusOr<std::string> new_sid =
      follower_service.CreateSession(kVehicleRentalSchema);
  OOCQ_EXPECT_OK(new_sid.status());
  follower.Stop();
}

// A replicated create whose local WAL append fails is skipped by the
// follower (counted, not fatal), but the session stays applied: the
// primary acked it, so the follower keeps serving it and applies the
// DEFINE that follows.
TEST(ReplEndToEndTest, FollowerKeepsACreateItsOwnWalFailedToLog) {
  std::string follower_dir = FreshDir("fsync_follower");
  ServiceOptions follower_options;
  follower_options.catalog = OpenCatalog(follower_dir);
  ASSERT_NE(follower_options.catalog, nullptr);
  follower_options.read_only = true;
  OocqService follower_service(follower_options);

  std::string primary_dir = FreshDir("fsync_primary");
  ServiceOptions primary_options;
  primary_options.catalog = OpenCatalog(primary_dir);
  ASSERT_NE(primary_options.catalog, nullptr);
  OocqService primary(primary_options);
  EventServerOptions transport_options;
  transport_options.dispatch_threads = 2;
  EventServer transport(&primary, transport_options);
  OOCQ_ASSERT_OK(transport.Start());
  StatusOr<std::string> sid = primary.CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(sid.status());

  // The next fsync in this process is the follower logging the create
  // its resync applies.
  OOCQ_ASSERT_OK(Failpoints::Configure("wal/fsync=error@1"));
  FollowerOptions tail_options;
  tail_options.port = transport.port();
  tail_options.poll_wait_ms = 100;
  Follower follower(&follower_service, tail_options);
  follower.Start();
  ASSERT_TRUE(Eventually([&] {
    return follower_service.metrics_registry()->CounterValue(
               "repl/apply_skipped") == 1;
  }));
  Failpoints::Reset();
  EXPECT_EQ(follower_service.SessionIds(), std::vector<std::string>{*sid});

  OOCQ_ASSERT_OK(primary.DefineQuery(*sid, "autos", "{ x | x in Auto }"));
  Request request = ContainRequest(*sid);
  request.query = "@autos";
  ASSERT_TRUE(Eventually([&] {
    Response response = follower_service.Execute(request);
    return response.status.ok() && response.verdict;
  }));
  auto registry = [](const OocqService& service) {
    StatusOr<persist::DurableCatalog::PositionedDump> dump =
        service.options().catalog->DumpWithPosition();
    EXPECT_TRUE(dump.ok()) << dump.status().ToString();
    std::vector<persist::Record> records;
    if (!dump.ok()) return records;
    for (persist::Record& record : dump->records) {
      if (record.type != persist::RecordType::kCacheEntry) {
        records.push_back(std::move(record));
      }
    }
    return records;
  };
  const std::vector<persist::Record> expected = registry(primary);
  ASSERT_EQ(expected.size(), 2u);  // CREATE, DEFINE
  EXPECT_EQ(registry(follower_service), expected);
  EXPECT_EQ(
      follower_service.metrics_registry()->CounterValue("repl/apply_skipped"),
      1u);

  follower.Stop();
  transport.Stop();
}

}  // namespace
}  // namespace oocq::server
