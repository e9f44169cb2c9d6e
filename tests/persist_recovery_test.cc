// Crash recovery and warm starts through the DurableCatalog + OocqService
// stack (docs/persistence.md): a fault-injected "process death" mid-append
// must replay exactly the acked mutations minus the torn tail; a clean
// restart must re-register every session and warm-start its containment
// cache; stale or corrupt on-disk state must degrade to a cold start.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "persist/catalog.h"
#include "persist/codec.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "server/service.h"
#include "support/failpoint.h"
#include "support/file.h"
#include "test_util.h"

namespace oocq::server {
namespace {

using persist::DurableCatalog;
using persist::DurableCatalogOptions;
using persist::Record;
using persist::RecordType;
using ::oocq::testing::kVehicleRentalSchema;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "oocq_recovery_" + name;
  StatusOr<std::vector<std::string>> names = ListDir(dir);
  if (names.ok()) {
    for (const std::string& file : *names) {
      (void)RemoveFileIfExists(dir + "/" + file);
    }
  }
  EXPECT_TRUE(MakeDirs(dir).ok());
  return dir;
}

std::shared_ptr<DurableCatalog> MustOpen(DurableCatalogOptions options) {
  StatusOr<std::unique_ptr<DurableCatalog>> catalog =
      DurableCatalog::Open(std::move(options));
  OOCQ_EXPECT_OK(catalog.status());
  return catalog.ok() ? std::shared_ptr<DurableCatalog>(*std::move(catalog))
                      : nullptr;
}

Record DefineRecord(int i) {
  Record record;
  record.type = RecordType::kDefineQuery;
  record.session_id = "s1";
  record.name = "q" + std::to_string(i);
  record.text = "{ x | x in Auto & x in Vehicle } -- #" + std::to_string(i);
  return record;
}

// The crash-recovery property: for every fault point, reopening the
// catalog recovers exactly the acked records — never a torn one, never
// a missing acked one.
TEST(CatalogRecoveryTest, FaultPointPropertyReplayEqualsAcked) {
  for (uint64_t fail_after : {64u, 150u, 301u, 444u, 777u}) {
    const std::string dir =
        FreshDir("fault_" + std::to_string(fail_after));
    size_t acked = 0;
    {
      DurableCatalogOptions options;
      options.data_dir = dir;
      options.snapshot_interval_s = 0;
      options.group_commit_window_us = 0;
      options.wal_fail_after_bytes = fail_after;
      std::shared_ptr<DurableCatalog> catalog = MustOpen(options);
      ASSERT_NE(catalog, nullptr);
      for (int i = 0; i < 32; ++i) {
        auto guard = catalog->MutationGuard();
        if (!catalog->Log(DefineRecord(i)).ok()) break;
        ++acked;
      }
      ASSERT_LT(acked, 32u) << "fault at " << fail_after << " never fired";
      // The catalog dies here with a torn frame on disk (no clean
      // shutdown, no snapshot — the destructor only joins threads).
    }
    DurableCatalogOptions reopen;
    reopen.data_dir = dir;
    reopen.snapshot_interval_s = 0;
    std::shared_ptr<DurableCatalog> catalog = MustOpen(reopen);
    ASSERT_NE(catalog, nullptr);
    const DurableCatalog::Recovery& recovery = catalog->recovery();
    EXPECT_FALSE(recovery.cold_start);
    EXPECT_GT(recovery.wal_truncated_bytes, 0u)
        << "fault at " << fail_after << " left no torn tail";
    ASSERT_EQ(catalog->recovered().size(), acked)
        << "fault at " << fail_after;
    for (size_t i = 0; i < acked; ++i) {
      EXPECT_EQ(catalog->recovered()[i], DefineRecord(static_cast<int>(i)));
    }
  }
}

TEST(CatalogRecoveryTest, StaleWalDegradesToColdStart) {
  const std::string dir = FreshDir("stale_wal");
  std::string stale;
  persist::EncodeFileHeader(&stale, "00000000deadbeef");
  persist::EncodeRecord(DefineRecord(0), &stale);
  OOCQ_ASSERT_OK(WriteFileDurable(dir + "/wal.log", stale));

  DurableCatalogOptions options;
  options.data_dir = dir;
  options.snapshot_interval_s = 0;
  std::shared_ptr<DurableCatalog> catalog = MustOpen(options);
  ASSERT_NE(catalog, nullptr);
  EXPECT_TRUE(catalog->recovery().cold_start);
  EXPECT_TRUE(catalog->recovered().empty());
  // The stale file is set aside, and the catalog is writable again.
  EXPECT_TRUE(ReadFileToString(dir + "/wal.log.stale").ok());
  auto guard = catalog->MutationGuard();
  OOCQ_EXPECT_OK(catalog->Log(DefineRecord(1)));
}

TEST(ServicePersistenceTest, WarmRestartRestoresSessionsQueriesAndCache) {
  const std::string dir = FreshDir("warm");
  DurableCatalogOptions catalog_options;
  catalog_options.data_dir = dir;
  catalog_options.snapshot_interval_s = 0;  // snapshot on shutdown only
  catalog_options.group_commit_window_us = 0;

  ServiceOptions service_options;
  service_options.metrics = false;
  std::string sid;
  Response first;
  {
    service_options.catalog = MustOpen(catalog_options);
    ASSERT_NE(service_options.catalog, nullptr);
    OocqService service(service_options);
    StatusOr<std::string> created = service.CreateSession(kVehicleRentalSchema);
    OOCQ_ASSERT_OK(created.status());
    sid = *created;
    OOCQ_ASSERT_OK(service.DefineQuery(sid, "autos", "{ x | x in Auto }"));
    OOCQ_ASSERT_OK(
        service.DefineQuery(sid, "vehicles", "{ x | x in Vehicle }"));
    OOCQ_ASSERT_OK(service.LoadState(
        sid, "state { a1: Auto { Doors = 4; } }"));

    Request request;
    request.kind = RequestKind::kContained;
    request.session_id = sid;
    request.query = "@autos";
    request.query2 = "@vehicles";
    first = service.Execute(request);
    OOCQ_ASSERT_OK(first.status);
    EXPECT_TRUE(first.verdict);
    // Destructor: drain + final snapshot (warm cache included).
  }
  EXPECT_GT(persist::LatestSnapshotSeq(dir), 0u);

  service_options.catalog = MustOpen(catalog_options);
  ASSERT_NE(service_options.catalog, nullptr);
  EXPECT_FALSE(service_options.catalog->recovered().empty());
  OocqService service(service_options);
  EXPECT_EQ(service.session_count(), 1u);

  // Identical answers after restart, via the restored named queries.
  Request request;
  request.kind = RequestKind::kContained;
  request.session_id = sid;
  request.query = "@autos";
  request.query2 = "@vehicles";
  Response warm = service.Execute(request);
  OOCQ_ASSERT_OK(warm.status);
  EXPECT_EQ(warm.verdict, first.verdict);

  // The restored state serves evaluation without a reload.
  Request eval;
  eval.kind = RequestKind::kEvaluate;
  eval.session_id = sid;
  eval.query = "{ x | x in Auto }";
  Response answers = service.Execute(eval);
  OOCQ_ASSERT_OK(answers.status);
  EXPECT_TRUE(answers.verdict);
}

// Recovery keeps a definition as its text, and its first use parses it:
// after a restart it answers CONTAIN, SAT, MINIMIZE and EVAL as before,
// and the catalog dump holds its text byte for byte, before and after
// that first use.
TEST(ServicePersistenceTest, RecoveredDefinitionAnswersAsBeforeAndKeepsText) {
  const std::string dir = FreshDir("first_use");
  DurableCatalogOptions catalog_options;
  catalog_options.data_dir = dir;
  catalog_options.snapshot_interval_s = 0;
  catalog_options.group_commit_window_us = 0;
  ServiceOptions service_options;
  service_options.metrics = false;
  // Odd spacing and a comment, which a print-reparse would not keep.
  const std::map<std::string, std::string> texts = {
      {"rented",
       "{ x |  exists y (x in Vehicle & y in Client &\n"
       "   x in y.VehRented) }  # any rented vehicle"},
      {"discounted",
       "{ x | exists y (x in Auto & y in Discount & x in y.VehRented) }"},
  };
  auto answers = [](OocqService& service, const std::string& sid) {
    std::vector<std::string> out;
    for (const auto& [kind, q1, q2] :
         std::vector<std::tuple<RequestKind, std::string, std::string>>{
             {RequestKind::kContained, "@rented", "{ x | x in Vehicle }"},
             {RequestKind::kContained, "@discounted", "@rented"},
             {RequestKind::kEquivalent, "@rented", "@discounted"},
             {RequestKind::kSatisfiable, "@discounted", ""},
             {RequestKind::kMinimize, "@rented", ""},
             {RequestKind::kEvaluate, "@rented", ""},
             {RequestKind::kEvaluate, "@discounted", ""},
         }) {
      Request request;
      request.kind = kind;
      request.session_id = sid;
      request.query = q1;
      request.query2 = q2;
      Response response = service.Execute(request);
      out.push_back(response.status.ToString() + " " +
                    std::to_string(response.verdict) + " " + response.body);
    }
    return out;
  };
  auto dumped = [](const OocqService& service) {
    std::map<std::string, std::string> out;
    StatusOr<DurableCatalog::PositionedDump> dump =
        service.options().catalog->DumpWithPosition();
    EXPECT_TRUE(dump.ok()) << dump.status().ToString();
    if (!dump.ok()) return out;
    for (const Record& record : dump->records) {
      if (record.type == RecordType::kDefineQuery) {
        out[record.name] = record.text;
      }
    }
    return out;
  };

  std::string sid;
  std::vector<std::string> before;
  {
    service_options.catalog = MustOpen(catalog_options);
    OocqService service(service_options);
    StatusOr<std::string> created = service.CreateSession(kVehicleRentalSchema);
    OOCQ_ASSERT_OK(created.status());
    sid = *created;
    for (const auto& [name, text] : texts) {
      OOCQ_ASSERT_OK(service.DefineQuery(sid, name, text));
    }
    OOCQ_ASSERT_OK(service.LoadState(
        sid, "state { a1: Auto { } t1: Truck { } "
             "d1: Discount { VehRented = { a1 }; } "
             "r1: Regular { VehRented = { t1 }; } }"));
    before = answers(service, sid);
    EXPECT_EQ(dumped(service), texts);
  }
  ASSERT_EQ(before.size(), 7u);
  EXPECT_EQ(before[0], "OK 1 ");
  EXPECT_EQ(before[1], "OK 1 ");
  EXPECT_EQ(before[2], "OK 0 ");
  EXPECT_EQ(before[3], "OK 1 ");

  service_options.catalog = MustOpen(catalog_options);
  OocqService service(service_options);
  EXPECT_EQ(dumped(service), texts);  // recovered, not yet used
  EXPECT_EQ(answers(service, sid), before);
  EXPECT_EQ(dumped(service), texts);  // parsed by the requests above
}

TEST(ServicePersistenceTest, DropSessionIsDurable) {
  const std::string dir = FreshDir("drop");
  DurableCatalogOptions catalog_options;
  catalog_options.data_dir = dir;
  catalog_options.snapshot_interval_s = 0;
  catalog_options.group_commit_window_us = 0;

  ServiceOptions service_options;
  service_options.metrics = false;
  std::string kept;
  {
    service_options.catalog = MustOpen(catalog_options);
    OocqService service(service_options);
    StatusOr<std::string> doomed = service.CreateSession(kVehicleRentalSchema);
    OOCQ_ASSERT_OK(doomed.status());
    StatusOr<std::string> survivor =
        service.CreateSession(kVehicleRentalSchema);
    OOCQ_ASSERT_OK(survivor.status());
    kept = *survivor;
    OOCQ_ASSERT_OK(service.DropSession(*doomed));
  }
  service_options.catalog = MustOpen(catalog_options);
  OocqService service(service_options);
  EXPECT_EQ(service.session_count(), 1u);
  // New ids never collide with restored ones.
  StatusOr<std::string> fresh = service.CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(fresh.status());
  EXPECT_NE(*fresh, kept);
}

TEST(ServicePersistenceTest, BackgroundSnapshotterCompactsTheWal) {
  const std::string dir = FreshDir("cadence");
  DurableCatalogOptions catalog_options;
  catalog_options.data_dir = dir;
  catalog_options.snapshot_interval_s = 1;
  catalog_options.group_commit_window_us = 0;

  ServiceOptions service_options;
  service_options.metrics = false;
  service_options.catalog = MustOpen(catalog_options);
  ASSERT_NE(service_options.catalog, nullptr);
  DurableCatalog* catalog = service_options.catalog.get();
  OocqService service(service_options);
  StatusOr<std::string> sid = service.CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(sid.status());
  OOCQ_ASSERT_OK(service.DefineQuery(*sid, "q", "{ x | x in Auto }"));

  // Within a few cadence ticks the snapshotter must have run and reset
  // the WAL (its records now live in the snapshot).
  for (int i = 0; i < 50 && catalog->snapshots_taken() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_GE(catalog->snapshots_taken(), 1u);
  EXPECT_GT(persist::LatestSnapshotSeq(dir), 0u);

  // An idle cadence tick does not write a new snapshot.
  const uint64_t seq_after_first = persist::LatestSnapshotSeq(dir);
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  EXPECT_EQ(persist::LatestSnapshotSeq(dir), seq_after_first);
}

TEST(ServicePersistenceTest, UnparsableRecoveredRecordIsSkippedNotFatal) {
  const std::string dir = FreshDir("skip");
  DurableCatalogOptions catalog_options;
  catalog_options.data_dir = dir;
  catalog_options.snapshot_interval_s = 0;
  catalog_options.group_commit_window_us = 0;
  {
    std::shared_ptr<DurableCatalog> catalog = MustOpen(catalog_options);
    auto guard = catalog->MutationGuard();
    Record good;
    good.type = RecordType::kCreateSession;
    good.session_id = "s1";
    good.text = kVehicleRentalSchema;
    OOCQ_ASSERT_OK(catalog->Log(good));
    Record bad;
    bad.type = RecordType::kDefineQuery;
    bad.session_id = "s1";
    bad.name = "broken";
    bad.text = "{ not a query at all";
    OOCQ_ASSERT_OK(catalog->Log(bad));
  }
  ServiceOptions service_options;
  service_options.metrics = false;
  service_options.catalog = MustOpen(catalog_options);
  OocqService service(service_options);
  // The session survives; the unparsable definition is dropped.
  EXPECT_EQ(service.session_count(), 1u);
  Request request;
  request.kind = RequestKind::kContained;
  request.session_id = "s1";
  request.query = "@broken";
  request.query2 = "{ x | x in Vehicle }";
  Response response = service.Execute(request);
  EXPECT_EQ(response.status.code(), StatusCode::kNotFound);
}

// One apply point, three entrances: a script run through the client API
// of a catalog-backed service, a fresh service recovering that catalog
// (WAL replay), and a follower fed the recovered records through
// ApplyReplicated must build the same registry — the same catalog dump,
// the same resident bytes, the same answers.
TEST(ServicePersistenceTest, ClientReplayAndReplicationBuildOneRegistry) {
  const std::string primary_dir = FreshDir("entrance_primary");
  const std::string replay_dir = FreshDir("entrance_replay");
  const std::string follower_dir = FreshDir("entrance_follower");
  auto open_service = [](const std::string& dir, bool read_only) {
    DurableCatalogOptions catalog_options;
    catalog_options.data_dir = dir;
    catalog_options.snapshot_interval_s = 0;
    catalog_options.group_commit_window_us = 0;
    ServiceOptions options;
    options.metrics = false;
    options.budget.max_resident_bytes = 1 << 20;
    options.read_only = read_only;
    options.catalog = MustOpen(catalog_options);
    return std::make_unique<OocqService>(options);
  };

  std::unique_ptr<OocqService> primary = open_service(primary_dir, false);
  StatusOr<std::string> s1 = primary->CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(s1.status());
  StatusOr<std::string> s2 = primary->CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(s2.status());
  OOCQ_ASSERT_OK(primary->DefineQuery(*s1, "autos", "{ x | x in Auto }"));
  OOCQ_ASSERT_OK(
      primary->DefineQuery(*s1, "vehicles", "{ x | x in Vehicle }"));
  OOCQ_ASSERT_OK(primary->DefineQuery(*s1, "autos",
                                      "{ x | x in Auto & x in Vehicle }"));
  EXPECT_EQ(primary->DefineQuery(*s1, "broken", "{ not a query").code(),
            StatusCode::kInvalidArgument);
  OOCQ_ASSERT_OK(primary->LoadState(
      *s1, "state { a1: Auto { Doors = 4; } t1: Truck { } }"));
  OOCQ_ASSERT_OK(primary->DefineQuery(*s2, "trucks", "{ x | x in Truck }"));
  OOCQ_ASSERT_OK(primary->DropSession(*s2));

  // The WAL holds exactly the mutations that applied: the refused parse
  // never reached it.
  StatusOr<std::string> wal = ReadFileToString(primary_dir + "/wal.log");
  OOCQ_ASSERT_OK(wal.status());
  StatusOr<persist::WriteAheadLog::ReplayResult> logged =
      persist::WriteAheadLog::Replay(primary_dir + "/wal.log");
  OOCQ_ASSERT_OK(logged.status());
  ASSERT_EQ(logged->records.size(), 8u);
  for (const Record& record : logged->records) EXPECT_NE(record.name, "broken");

  OOCQ_ASSERT_OK(WriteFileDurable(replay_dir + "/wal.log", *wal));
  std::unique_ptr<OocqService> replayed = open_service(replay_dir, false);
  std::unique_ptr<OocqService> follower = open_service(follower_dir, true);
  for (const Record& record : logged->records) {
    OOCQ_ASSERT_OK(follower->ApplyReplicated(record));
  }

  auto registry = [](const OocqService& service) {
    StatusOr<DurableCatalog::PositionedDump> dump =
        service.options().catalog->DumpWithPosition();
    EXPECT_TRUE(dump.ok()) << dump.status().ToString();
    std::vector<Record> records;
    if (!dump.ok()) return records;
    for (Record& record : dump->records) {
      if (record.type != RecordType::kCacheEntry) {
        records.push_back(std::move(record));
      }
    }
    return records;
  };
  auto answers = [&](OocqService& service) {
    std::vector<std::string> out;
    for (const auto& [kind, q1, q2] :
         std::vector<std::tuple<RequestKind, std::string, std::string>>{
             {RequestKind::kContained, "@autos", "@vehicles"},
             {RequestKind::kContained, "@vehicles", "@autos"},
             {RequestKind::kEvaluate, "@autos", ""},
             {RequestKind::kEvaluate, "@vehicles", ""},
         }) {
      Request request;
      request.kind = kind;
      request.session_id = *s1;
      request.query = q1;
      request.query2 = q2;
      Response response = service.Execute(request);
      out.push_back(response.status.ToString() + " " +
                    std::to_string(response.verdict) + " " + response.body);
    }
    Request dropped;
    dropped.kind = RequestKind::kEvaluate;
    dropped.session_id = *s2;
    dropped.query = "@trucks";
    out.push_back(service.Execute(dropped).status.ToString());
    return out;
  };

  const std::vector<Record> expected = registry(*primary);
  ASSERT_EQ(expected.size(), 4u);  // CREATE s1, two DEFINEs, the STATE
  EXPECT_EQ(registry(*replayed), expected);
  EXPECT_EQ(registry(*follower), expected);
  const uint64_t resident = primary->CollectHealth().resident_bytes;
  EXPECT_GT(resident, 0u);
  EXPECT_EQ(replayed->CollectHealth().resident_bytes, resident);
  EXPECT_EQ(follower->CollectHealth().resident_bytes, resident);
  const std::vector<std::string> expected_answers = {
      "OK 1 ", "OK 0 ", "OK 1 Auto#0\n", "OK 1 Auto#0\nTruck#1\n",
      "NOT_FOUND: no session '" + *s2 + "'"};
  EXPECT_EQ(answers(*primary), expected_answers);
  EXPECT_EQ(answers(*replayed), expected_answers);
  EXPECT_EQ(answers(*follower), expected_answers);
}

// Two SESSION DROPs racing for one session: exactly one erases it and
// answers OK; the other answers NOT_FOUND and appends nothing.
TEST(ServicePersistenceTest, ConcurrentDropsOfOneSessionAckOnce) {
  DurableCatalogOptions catalog_options;
  catalog_options.data_dir = FreshDir("drop_race");
  catalog_options.snapshot_interval_s = 0;
  ServiceOptions options;
  options.metrics = false;
  options.catalog = MustOpen(catalog_options);
  ASSERT_NE(options.catalog, nullptr);
  OocqService service(options);
  persist::WriteAheadLog* wal = options.catalog->wal();
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    StatusOr<std::string> sid = service.CreateSession(kVehicleRentalSchema);
    OOCQ_ASSERT_OK(sid.status());
    const uint64_t appended = wal->appended();
    std::atomic<int> ready{0};
    Status first;
    Status second;
    auto drop = [&](Status* out) {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      *out = service.DropSession(*sid);
    };
    std::thread racer(drop, &second);
    drop(&first);
    racer.join();
    EXPECT_NE(first.ok(), second.ok())
        << first.ToString() << " / " << second.ToString();
    EXPECT_EQ((first.ok() ? second : first).code(), StatusCode::kNotFound);
    EXPECT_EQ(wal->appended(), appended + 1);
  }
  EXPECT_EQ(service.session_count(), 0u);
}

// A replicated record stays applied when this node's own WAL append
// fails: the primary acked it. A re-shipped create of a session the
// follower already holds changes nothing, so its failed append must not
// take the session (or its named queries) away.
TEST(ServicePersistenceTest, ReplicatedRecordSurvivesItsFailedLocalAppend) {
  DurableCatalogOptions catalog_options;
  catalog_options.data_dir = FreshDir("repl_fsync");
  catalog_options.snapshot_interval_s = 0;
  ServiceOptions options;
  options.metrics = false;
  options.read_only = true;
  options.catalog = MustOpen(catalog_options);
  ASSERT_NE(options.catalog, nullptr);
  OocqService follower(options);
  const Record create{.type = RecordType::kCreateSession,
                      .session_id = "s1",
                      .text = kVehicleRentalSchema};
  OOCQ_ASSERT_OK(follower.ApplyReplicated(create));
  OOCQ_ASSERT_OK(follower.ApplyReplicated({.type = RecordType::kDefineQuery,
                                           .session_id = "s1",
                                           .name = "autos",
                                           .text = "{ x | x in Auto }"}));

  OOCQ_ASSERT_OK(Failpoints::Configure("wal/fsync=error@1"));
  EXPECT_FALSE(follower.ApplyReplicated(create).ok());
  OOCQ_ASSERT_OK(Failpoints::Configure("wal/fsync=error@1"));
  EXPECT_FALSE(follower
                   .ApplyReplicated({.type = RecordType::kCreateSession,
                                     .session_id = "s2",
                                     .text = kVehicleRentalSchema})
                   .ok());
  Failpoints::Reset();
  OOCQ_ASSERT_OK(follower.ApplyReplicated({.type = RecordType::kDefineQuery,
                                           .session_id = "s2",
                                           .name = "autos",
                                           .text = "{ x | x in Auto }"}));

  EXPECT_EQ(follower.SessionIds(), (std::vector<std::string>{"s1", "s2"}));
  for (const std::string sid : {"s1", "s2"}) {
    Request request;
    request.kind = RequestKind::kContained;
    request.session_id = sid;
    request.query = "@autos";
    request.query2 = "{ x | x in Vehicle }";
    Response response = follower.Execute(request);
    OOCQ_EXPECT_OK(response.status);
    EXPECT_TRUE(response.verdict) << sid;
  }
  EXPECT_EQ(follower.metrics_registry()->CounterValue("repl/applied_records"),
            5u);
}

}  // namespace
}  // namespace oocq::server
