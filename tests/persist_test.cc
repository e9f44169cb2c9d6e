// The durable-catalog building blocks in isolation: the checksummed
// record codec, WAL append/replay with corrupt-tail truncation, and
// atomic snapshots — including a snapshot/WAL round trip over random
// queries from the property-test generator (docs/persistence.md).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/canonical.h"
#include "persist/codec.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "query/printer.h"
#include "query/well_formed.h"
#include "random_query.h"
#include "support/failpoint.h"
#include "support/file.h"
#include "support/metrics.h"
#include "test_util.h"

namespace oocq::persist {
namespace {

using ::oocq::testing::kVehicleRentalSchema;
using ::oocq::testing::MustParseSchema;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "oocq_persist_" + name;
  // Tests re-run in the same temp dir; start from an empty directory.
  StatusOr<std::vector<std::string>> names = ListDir(dir);
  if (names.ok()) {
    for (const std::string& file : *names) {
      (void)RemoveFileIfExists(dir + "/" + file);
    }
  }
  EXPECT_TRUE(MakeDirs(dir).ok());
  return dir;
}

Record MakeRecord(RecordType type, const std::string& sid,
                  const std::string& name, const std::string& text,
                  bool verdict = false) {
  Record record;
  record.type = type;
  record.session_id = sid;
  record.name = name;
  record.text = text;
  record.verdict = verdict;
  return record;
}

TEST(CodecTest, RecordRoundTripAllTypes) {
  const std::vector<Record> records = {
      MakeRecord(RecordType::kCreateSession, "s1", "", "schema S { }"),
      MakeRecord(RecordType::kDefineQuery, "s1", "q1", "{ x | x in A }"),
      MakeRecord(RecordType::kSetState, "s1", "", "state { }"),
      MakeRecord(RecordType::kDropSession, "s1", "", ""),
      MakeRecord(RecordType::kCacheEntry, "s2", "", "12:abc\x00zzz", true),
  };
  std::string buffer;
  for (const Record& record : records) EncodeRecord(record, &buffer);

  size_t offset = 0;
  for (const Record& expected : records) {
    Record decoded;
    ASSERT_EQ(DecodeRecord(buffer, &offset, &decoded), DecodeResult::kOk);
    EXPECT_EQ(decoded, expected);
  }
  EXPECT_EQ(offset, buffer.size());
  Record extra;
  EXPECT_EQ(DecodeRecord(buffer, &offset, &extra), DecodeResult::kNeedMore);
}

TEST(CodecTest, FlippedByteIsCorrupt) {
  std::string buffer;
  EncodeRecord(MakeRecord(RecordType::kDefineQuery, "s1", "q", "text"),
               &buffer);
  for (size_t i = 8; i < buffer.size(); ++i) {  // payload bytes only
    std::string damaged = buffer;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x40);
    size_t offset = 0;
    Record out;
    EXPECT_EQ(DecodeRecord(damaged, &offset, &out), DecodeResult::kCorrupt)
        << "flipping byte " << i << " went undetected";
    EXPECT_EQ(offset, 0u);
  }
}

TEST(CodecTest, TruncatedFrameNeedsMore) {
  std::string buffer;
  EncodeRecord(MakeRecord(RecordType::kSetState, "s1", "", "state { }"),
               &buffer);
  for (size_t cut = 0; cut < buffer.size(); ++cut) {
    size_t offset = 0;
    Record out;
    EXPECT_EQ(DecodeRecord(buffer.substr(0, cut), &offset, &out),
              DecodeResult::kNeedMore)
        << "prefix of " << cut << " bytes";
  }
}

TEST(CodecTest, InsaneLengthIsCorruptNotAllocation) {
  std::string buffer;
  // payload_len = 0xFFFFFFFF with a bogus checksum.
  buffer.assign(8, '\xFF');
  size_t offset = 0;
  Record out;
  EXPECT_EQ(DecodeRecord(buffer, &offset, &out), DecodeResult::kCorrupt);
}

TEST(CodecTest, HeaderRoundTripAndMismatch) {
  std::string good;
  EncodeFileHeader(&good);
  size_t offset = 0;
  OOCQ_EXPECT_OK(DecodeFileHeader(good, &offset));
  EXPECT_EQ(offset, EncodedHeaderSize());

  // Truncated header: kInvalidArgument (callers treat as torn file).
  offset = 0;
  EXPECT_EQ(DecodeFileHeader(good.substr(0, good.size() - 1), &offset).code(),
            StatusCode::kInvalidArgument);

  // A different engine fingerprint: kFailedPrecondition (cold start).
  std::string stale;
  EncodeFileHeader(&stale, "0000000000000000");
  offset = 0;
  EXPECT_EQ(DecodeFileHeader(stale, &offset).code(),
            StatusCode::kFailedPrecondition);
}

TEST(CodecTest, FingerprintIsStable) {
  EXPECT_EQ(EngineFingerprint(), EngineFingerprint());
  EXPECT_EQ(EngineFingerprint().size(), 16u);  // 64-bit hash, hex
}

// The fingerprint hashes CanonicalKey bytes on fixed probes, and every WAL
// and snapshot header carries it. Changing this value is not free: on
// upgrade every existing WAL and snapshot is set aside and the server
// cold-starts, losing its sessions and cached verdicts (docs/
// persistence.md, "The engine fingerprint"). A key-byte drift would
// otherwise show only as that silent cold start.
TEST(CodecTest, FingerprintIsPinned) {
  EXPECT_EQ(EngineFingerprint(), "fbfff33df3f9bf30");
}

TEST(WalTest, AppendReplayRoundTrip) {
  const std::string dir = FreshDir("wal_roundtrip");
  const std::string path = dir + "/wal.log";
  std::vector<Record> written;
  {
    StatusOr<std::unique_ptr<WriteAheadLog>> wal = WriteAheadLog::Open(path);
    OOCQ_ASSERT_OK(wal.status());
    for (int i = 0; i < 20; ++i) {
      Record record = MakeRecord(RecordType::kDefineQuery, "s1",
                                 "q" + std::to_string(i),
                                 "{ x | x in Auto }", i % 2 == 0);
      OOCQ_ASSERT_OK((*wal)->Append(record));
      written.push_back(std::move(record));
    }
    EXPECT_EQ((*wal)->appended(), 20u);
    EXPECT_GE((*wal)->syncs(), 1u);
  }
  StatusOr<WriteAheadLog::ReplayResult> replayed = WriteAheadLog::Replay(path);
  OOCQ_ASSERT_OK(replayed.status());
  EXPECT_EQ(replayed->records, written);
  EXPECT_EQ(replayed->truncated_bytes, 0u);
}

TEST(WalTest, LatencyHistogramCountsMatchAppendsAndSyncs) {
  // The WAL's telemetry contract (docs/observability.md#stats): every
  // acked append records exactly one persist/wal_append_us sample (its
  // latency includes the covering fsync), and every physical fsync round
  // records exactly one persist/fsync_us sample — so histogram counts are
  // cross-checkable against the WAL's own appended()/syncs() counters.
  const std::string dir = FreshDir("wal_histograms");
  const std::string path = dir + "/wal.log";
  MetricsRegistry registry;
  MetricsScope scope(&registry);
  ASSERT_TRUE(scope.active());

  uint64_t appended = 0;
  uint64_t syncs = 0;
  {
    StatusOr<std::unique_ptr<WriteAheadLog>> wal = WriteAheadLog::Open(path);
    OOCQ_ASSERT_OK(wal.status());
    for (int i = 0; i < 16; ++i) {
      OOCQ_ASSERT_OK((*wal)->Append(
          MakeRecord(RecordType::kDefineQuery, "s1", "q" + std::to_string(i),
                     "{ x | x in Auto }")));
    }
    appended = (*wal)->appended();
    syncs = (*wal)->syncs();
  }
  ASSERT_EQ(appended, 16u);
  ASSERT_GE(syncs, 1u);

  const MetricsRegistry::HistogramSnapshot* append_us = nullptr;
  const MetricsRegistry::HistogramSnapshot* fsync_us = nullptr;
  MetricsRegistry::Snapshot snap = registry.Snap();
  for (const auto& histogram : snap.histograms) {
    if (histogram.name == "persist/wal_append_us") append_us = &histogram;
    if (histogram.name == "persist/fsync_us") fsync_us = &histogram;
  }
  ASSERT_NE(append_us, nullptr);
  ASSERT_NE(fsync_us, nullptr);
  EXPECT_EQ(append_us->count, appended);
  EXPECT_EQ(fsync_us->count, syncs);
}

// A lone appender has nothing to batch: it fsyncs at once. The group-
// commit window option is ignored, so even 100 ms costs nothing.
TEST(WalTest, LoneAppenderSkipsTheGroupCommitWindow) {
  const std::string path = FreshDir("wal_lone") + "/wal.log";
  WalOptions options;
  options.group_commit_window_us = 100000;  // 100 ms
  StatusOr<std::unique_ptr<WriteAheadLog>> wal =
      WriteAheadLog::Open(path, options);
  OOCQ_ASSERT_OK(wal.status());
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 3; ++i) {
    OOCQ_ASSERT_OK((*wal)->Append(MakeRecord(
        RecordType::kDefineQuery, "s1", "q" + std::to_string(i),
        "{ x | x in Auto }")));
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(150));
  EXPECT_EQ((*wal)->syncs(), 3u);
}

// Concurrent appenders share fsyncs without any sleep: appends that
// arrive during a leader's (here 2 ms) fsync share the next one, and an
// appender whose frame a round covered returns at once instead of
// sitting out the round after it. Eight appenders then average more
// than three appends per fsync; when covered appenders waited a round
// too, they averaged about two.
TEST(WalTest, ConcurrentAppendersShareFsyncs) {
  const std::string path = FreshDir("wal_group") + "/wal.log";
  StatusOr<std::unique_ptr<WriteAheadLog>> wal = WriteAheadLog::Open(path);
  OOCQ_ASSERT_OK(wal.status());
  OOCQ_ASSERT_OK(Failpoints::Configure("wal/fsync=delay:2"));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20;
  std::atomic<bool> go{false};
  std::vector<std::thread> appenders;
  for (int t = 0; t < kThreads; ++t) {
    appenders.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) {
        OOCQ_EXPECT_OK((*wal)->Append(MakeRecord(
            RecordType::kDefineQuery, "s" + std::to_string(t),
            "q" + std::to_string(i), "{ x | x in Auto }")));
      }
    });
  }
  go.store(true);
  for (std::thread& appender : appenders) appender.join();
  Failpoints::Reset();
  EXPECT_EQ((*wal)->appended(), uint64_t{kThreads * kPerThread});
  EXPECT_LT((*wal)->syncs() * 3, (*wal)->appended());
}

TEST(WalTest, CorruptTailIsTruncatedOnReplay) {
  const std::string dir = FreshDir("wal_torn");
  const std::string path = dir + "/wal.log";
  {
    StatusOr<std::unique_ptr<WriteAheadLog>> wal = WriteAheadLog::Open(path);
    OOCQ_ASSERT_OK(wal.status());
    for (int i = 0; i < 3; ++i) {
      OOCQ_ASSERT_OK((*wal)->Append(
          MakeRecord(RecordType::kCreateSession, "s" + std::to_string(i), "",
                     "schema S { }")));
    }
  }
  // A torn append: half a frame's worth of garbage at the end.
  StatusOr<std::string> contents = ReadFileToString(path);
  OOCQ_ASSERT_OK(contents.status());
  const size_t intact = contents->size();
  OOCQ_ASSERT_OK(
      WriteFileDurable(path, *contents + std::string(13, '\x7f')));

  StatusOr<WriteAheadLog::ReplayResult> replayed = WriteAheadLog::Replay(path);
  OOCQ_ASSERT_OK(replayed.status());
  EXPECT_EQ(replayed->records.size(), 3u);
  EXPECT_EQ(replayed->truncated_bytes, 13u);
  // The file is healed: a second replay sees a clean log.
  StatusOr<std::string> after = ReadFileToString(path);
  OOCQ_ASSERT_OK(after.status());
  EXPECT_EQ(after->size(), intact);
}

TEST(WalTest, InjectedFaultTearsExactlyOneAppend) {
  const std::string dir = FreshDir("wal_fault");
  const std::string path = dir + "/wal.log";
  WalOptions options;
  options.group_commit_window_us = 0;
  options.fail_after_bytes = 200;  // dies somewhere inside an append
  size_t acked = 0;
  {
    StatusOr<std::unique_ptr<WriteAheadLog>> wal =
        WriteAheadLog::Open(path, options);
    OOCQ_ASSERT_OK(wal.status());
    for (int i = 0; i < 10; ++i) {
      Status appended = (*wal)->Append(MakeRecord(
          RecordType::kDefineQuery, "s1", "query_name_" + std::to_string(i),
          "{ x | x in Auto & x in Vehicle }"));
      if (!appended.ok()) break;
      ++acked;
    }
    // The log refuses appends after the torn write.
    EXPECT_FALSE(
        (*wal)
            ->Append(MakeRecord(RecordType::kDropSession, "s1", "", ""))
            .ok());
  }
  ASSERT_LT(acked, 10u);
  StatusOr<WriteAheadLog::ReplayResult> replayed = WriteAheadLog::Replay(path);
  OOCQ_ASSERT_OK(replayed.status());
  // Exactly the acked appends survive; the torn frame is gone.
  EXPECT_EQ(replayed->records.size(), acked);
}

TEST(WalTest, ResetCompactsToBareHeader) {
  const std::string dir = FreshDir("wal_reset");
  const std::string path = dir + "/wal.log";
  StatusOr<std::unique_ptr<WriteAheadLog>> wal = WriteAheadLog::Open(path);
  OOCQ_ASSERT_OK(wal.status());
  OOCQ_ASSERT_OK((*wal)->Append(
      MakeRecord(RecordType::kCreateSession, "s1", "", "schema S { }")));
  OOCQ_ASSERT_OK((*wal)->Reset());
  Record after_reset =
      MakeRecord(RecordType::kCreateSession, "s2", "", "schema T { }");
  OOCQ_ASSERT_OK((*wal)->Append(after_reset));

  StatusOr<WriteAheadLog::ReplayResult> replayed = WriteAheadLog::Replay(path);
  OOCQ_ASSERT_OK(replayed.status());
  ASSERT_EQ(replayed->records.size(), 1u);
  EXPECT_EQ(replayed->records[0], after_reset);
}

TEST(WalTest, MismatchedFingerprintRejectsWholeFile) {
  const std::string dir = FreshDir("wal_stale");
  const std::string path = dir + "/wal.log";
  std::string stale;
  EncodeFileHeader(&stale, "feedfacefeedface");
  EncodeRecord(MakeRecord(RecordType::kCreateSession, "s1", "", "schema"),
               &stale);
  OOCQ_ASSERT_OK(WriteFileDurable(path, stale));
  StatusOr<WriteAheadLog::ReplayResult> replayed = WriteAheadLog::Replay(path);
  EXPECT_EQ(replayed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SnapshotTest, WriteLoadNewestWins) {
  const std::string dir = FreshDir("snap_newest");
  std::vector<Record> old_records = {
      MakeRecord(RecordType::kCreateSession, "s1", "", "schema A { }")};
  std::vector<Record> new_records = {
      MakeRecord(RecordType::kCreateSession, "s1", "", "schema A { }"),
      MakeRecord(RecordType::kDefineQuery, "s1", "q", "{ x | x in A }")};
  OOCQ_ASSERT_OK(WriteSnapshot(dir, 1, old_records));
  OOCQ_ASSERT_OK(WriteSnapshot(dir, 2, new_records));
  EXPECT_EQ(LatestSnapshotSeq(dir), 2u);

  StatusOr<LoadedSnapshot> loaded = LoadLatestSnapshot(dir);
  OOCQ_ASSERT_OK(loaded.status());
  EXPECT_EQ(loaded->seq, 2u);
  EXPECT_EQ(loaded->records, new_records);

  RemoveSnapshotsBefore(dir, 2);
  loaded = LoadLatestSnapshot(dir);
  OOCQ_ASSERT_OK(loaded.status());
  EXPECT_EQ(loaded->seq, 2u);  // seq 1 removed, 2 still loads
}

TEST(SnapshotTest, CorruptNewestFallsBackToOlder) {
  const std::string dir = FreshDir("snap_fallback");
  std::vector<Record> good = {
      MakeRecord(RecordType::kCreateSession, "s1", "", "schema A { }")};
  OOCQ_ASSERT_OK(WriteSnapshot(dir, 1, good));
  OOCQ_ASSERT_OK(WriteSnapshot(dir, 2, good));
  // Damage snapshot 2 in the middle of its frame.
  const std::string newest = SnapshotPath(dir, 2);
  StatusOr<std::string> contents = ReadFileToString(newest);
  OOCQ_ASSERT_OK(contents.status());
  std::string damaged = *contents;
  damaged[damaged.size() / 2] ^= 0x20;
  OOCQ_ASSERT_OK(WriteFileDurable(newest, damaged));

  StatusOr<LoadedSnapshot> loaded = LoadLatestSnapshot(dir);
  OOCQ_ASSERT_OK(loaded.status());
  EXPECT_EQ(loaded->seq, 1u);
  EXPECT_EQ(loaded->records, good);
  ASSERT_EQ(loaded->skipped.size(), 1u);
  EXPECT_NE(loaded->skipped[0].find("snapshot.000002"), std::string::npos);
}

TEST(SnapshotTest, MissingDirectoryIsEmptyNotError) {
  StatusOr<LoadedSnapshot> loaded =
      LoadLatestSnapshot(::testing::TempDir() + "oocq_persist_nonexistent_x");
  OOCQ_ASSERT_OK(loaded.status());
  EXPECT_EQ(loaded->seq, 0u);
  EXPECT_TRUE(loaded->records.empty());
}

// The satellite round trip: random queries (canonical-pair cache keys and
// query texts alike) survive snapshot + WAL persistence byte-for-byte.
TEST(SnapshotTest, RandomQueryRoundTripThroughSnapshotAndWal) {
  const Schema schema = MustParseSchema(kVehicleRentalSchema);
  std::mt19937_64 rng(20260805);
  testing::RandomQueryParams params;
  params.max_vars = 3;
  params.max_extra_atoms = 3;

  const std::string dir = FreshDir("snap_random");
  std::vector<Record> records;
  for (int i = 0; i < 40; ++i) {
    ConjunctiveQuery query = testing::GenerateRandomQuery(schema, rng, params);
    if (!CheckWellFormed(schema, query).ok()) continue;
    ConjunctiveQuery query2 = testing::GenerateRandomQuery(schema, rng, params);
    if (!CheckWellFormed(schema, query2).ok()) continue;
    records.push_back(MakeRecord(RecordType::kDefineQuery, "s1",
                                 "q" + std::to_string(i),
                                 QueryToString(schema, query)));
    // Cache keys are binary-ish canonical strings; they must round-trip
    // untouched too.
    const std::string k1 = CanonicalKey(query);
    records.push_back(MakeRecord(
        RecordType::kCacheEntry, "s1", "",
        std::to_string(k1.size()) + ":" + k1 + CanonicalKey(query2),
        i % 2 == 0));
  }
  ASSERT_GT(records.size(), 10u);

  // Half into a snapshot, half into the WAL — as a real crash leaves them.
  const size_t half = records.size() / 2;
  std::vector<Record> in_snapshot(records.begin(), records.begin() + half);
  OOCQ_ASSERT_OK(WriteSnapshot(dir, 7, in_snapshot));
  {
    StatusOr<std::unique_ptr<WriteAheadLog>> wal =
        WriteAheadLog::Open(dir + "/wal.log");
    OOCQ_ASSERT_OK(wal.status());
    for (size_t i = half; i < records.size(); ++i) {
      OOCQ_ASSERT_OK((*wal)->Append(records[i]));
    }
  }

  StatusOr<LoadedSnapshot> snapshot = LoadLatestSnapshot(dir);
  OOCQ_ASSERT_OK(snapshot.status());
  StatusOr<WriteAheadLog::ReplayResult> wal_replay =
      WriteAheadLog::Replay(dir + "/wal.log");
  OOCQ_ASSERT_OK(wal_replay.status());

  std::vector<Record> recovered = snapshot->records;
  recovered.insert(recovered.end(), wal_replay->records.begin(),
                   wal_replay->records.end());
  ASSERT_EQ(recovered, records);

  // Query texts re-parse to the same canonical form.
  for (const Record& record : recovered) {
    if (record.type != RecordType::kDefineQuery) continue;
    StatusOr<ConjunctiveQuery> reparsed = ParseQuery(schema, record.text);
    OOCQ_ASSERT_OK(reparsed.status());
  }
}

}  // namespace
}  // namespace oocq::persist
