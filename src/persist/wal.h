#ifndef OOCQ_PERSIST_WAL_H_
#define OOCQ_PERSIST_WAL_H_

/// The durable catalog's write-ahead log: session mutations are appended
/// as codec frames (persist/codec.h) and fsynced before the mutation is
/// acknowledged, so a restart replays every acked mutation since the
/// last snapshot. Snapshots compact the log by resetting it to a bare
/// header (DurableCatalog holds its mutation gate across both steps).
///
/// fsync batching: an Append first publishes its frame under the log
/// mutex, then joins a *group commit* — one appender becomes the sync
/// leader and at once issues a single fsync covering every frame written
/// so far; the rest just wait for a sync to cover their sequence number.
/// Appends that arrive during a leader's fsync queue behind it and share
/// the next one, so the batch grows with the load and a lone appender
/// never waits.
///
/// Replay tolerates exactly the failure a torn append leaves behind: the
/// first frame that is short or fails its CRC ends the replay and the
/// file is truncated back to the last good frame ("corrupt-tail
/// truncation") — acked history is never dropped, unacked bytes never
/// replayed. A header from a different format version or engine
/// fingerprint rejects the whole file with kFailedPrecondition; the
/// catalog degrades that to a logged cold start.
///
/// Tail reading (docs/replication.md): a subscriber addresses the log by
/// (epoch, byte offset). The epoch starts at 1 and bumps on every
/// Reset(), so an offset is only meaningful within one epoch — after a
/// compaction the subscriber must resync from a snapshot. WaitDurable()
/// parks until the fsync-covered tip moves past an offset (waking on
/// every completed group commit, so batches ship as they fsync), and
/// ReadDurableRange() hands back the raw frames — CRC intact — between
/// an offset and the durable tip.
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "persist/codec.h"
#include "support/status.h"

namespace oocq::persist {

struct WalOptions {
  /// Ignored: a sync leader never waits for co-travellers (see the
  /// fsync-batching note above). Kept so existing callers still build.
  uint32_t group_commit_window_us = 200;
  /// Test-only fault injection: after this many total bytes the file
  /// "dies" — a frame crossing the limit is written only up to it (a
  /// torn append, as a SIGKILL mid-write would leave) and the append
  /// fails with kInternal. 0 disables.
  uint64_t fail_after_bytes = 0;
};

class WriteAheadLog {
 public:
  /// Opens `path` for appending, writing a fresh header when the file is
  /// new or empty. Open() does NOT validate existing contents — replay
  /// first (Replay()), then open.
  static StatusOr<std::unique_ptr<WriteAheadLog>> Open(
      const std::string& path, WalOptions options = {});

  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends one record and returns once an fsync covers it (see the
  /// group-commit comment above). Thread-safe.
  Status Append(const Record& record);

  /// Truncates the log back to a bare header — run by the snapshotter
  /// after the snapshot that subsumes the log's records is durable.
  Status Reset();

  /// Records appended through this handle (not counting replayed ones).
  uint64_t appended() const;
  /// fsync(2) calls issued; with batching, less than appended().
  uint64_t syncs() const;
  const std::string& path() const { return path_; }

  /// One encoded frame handed to a tail reader, with the byte offset it
  /// starts at. The frame bytes are exactly what Append() wrote — the
  /// CRC travels with them, so a shipped record is verifiable end to end.
  struct TailRecord {
    uint64_t offset = 0;
    std::string frame;
  };

  struct TailBatch {
    std::vector<TailRecord> records;
    /// Where the next read should start (== the durable tip when the
    /// batch drained everything available).
    uint64_t next_offset = 0;
    /// fsync-covered file size / record count / epoch at read time.
    uint64_t durable_bytes = 0;
    uint64_t durable_seq = 0;
    uint64_t epoch = 0;
  };

  /// Compaction epoch: 1 for a fresh log, bumped by every Reset().
  uint64_t epoch() const;
  /// File bytes (header included) covered by a completed fsync.
  uint64_t synced_bytes() const;
  /// Records covered by a completed fsync this epoch — includes records
  /// already in the file at open once NoteExistingRecords() seeded them.
  uint64_t synced_seq() const;

  /// Seeds the epoch-relative sequence counter with records already in
  /// the file. The catalog calls this right after replay, so sequence
  /// numbers shipped to subscribers count from the epoch start rather
  /// than from this handle's open.
  void NoteExistingRecords(uint64_t count);

  /// Blocks until the durable tip moves past `offset`, the epoch
  /// changes, or `timeout_ms` elapses. Returns true when there is
  /// something new for the caller (tip beyond `offset`, or a new epoch).
  bool WaitDurable(uint64_t offset, uint32_t timeout_ms) const;

  /// Reads fsync-covered frames starting at byte `from_offset`, up to
  /// roughly `max_bytes` (0 = a default batch; always at least one frame
  /// when one is durable, so a reader never stalls on a large record).
  /// An offset outside [header, durable tip], a mid-frame offset, or a
  /// Reset() racing the read returns kFailedPrecondition — the
  /// subscriber's signal to resync from a snapshot.
  StatusOr<TailBatch> ReadDurableRange(uint64_t from_offset,
                                       uint64_t max_bytes) const;

  struct ReplayResult {
    std::vector<Record> records;
    /// Bytes of torn/corrupt tail removed from the file.
    uint64_t truncated_bytes = 0;
  };

  /// Replays `path`: decodes every intact frame, truncating the file at
  /// the first torn or corrupt one. A missing file is an empty result; a
  /// header mismatch (version / engine fingerprint) is
  /// kFailedPrecondition and leaves the file untouched.
  static StatusOr<ReplayResult> Replay(const std::string& path);

 private:
  WriteAheadLog(std::string path, int fd, uint64_t size, WalOptions options)
      : path_(std::move(path)), fd_(fd), options_(options), bytes_(size) {}

  /// Blocks until an fsync covers sequence number `seq`; one caller
  /// becomes the leader for each sync round.
  Status SyncCovering(uint64_t seq);

  const std::string path_;
  int fd_;
  WalOptions options_;

  std::mutex write_mu_;       // serializes write(2) calls; guards bytes_
  uint64_t bytes_ = 0;        // file size written so far (incl. header)
  uint64_t write_seq_ = 0;    // frames fully written
  bool broken_ = false;       // a write failed; the log refuses appends

  mutable std::mutex sync_mu_;
  mutable std::condition_variable sync_cv_;
  uint64_t synced_seq_ = 0;    // frames covered by a completed fsync
  uint64_t synced_bytes_ = 0;  // file bytes covered by a completed fsync
  uint64_t epoch_ = 1;         // bumped by Reset(); offsets scoped to it
  bool sync_in_flight_ = false;

  std::atomic<uint64_t> appended_{0};
  std::atomic<uint64_t> syncs_{0};
};

}  // namespace oocq::persist

#endif  // OOCQ_PERSIST_WAL_H_
