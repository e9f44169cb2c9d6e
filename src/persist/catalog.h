#ifndef OOCQ_PERSIST_CATALOG_H_
#define OOCQ_PERSIST_CATALOG_H_

/// DurableCatalog — the persistence facade between the engine and the
/// server (docs/persistence.md). One catalog owns one data directory:
///
///   <data_dir>/wal.log          append-only mutation log (persist/wal.h)
///   <data_dir>/snapshot.NNNNNN  full-registry snapshots (persist/snapshot.h)
///   <data_dir>/TERM             replication term (decimal, fsynced rename)
///
/// Open() performs recovery: load the newest readable snapshot, replay
/// the WAL on top (truncating a torn tail), and expose the combined
/// record stream through recovered() for the service to apply. Stale
/// bytes never become state: a WAL or snapshot written by a different
/// format version or engine fingerprint is set aside and recovery
/// degrades to a logged cold start — never a crash, never a wrong
/// verdict.
///
/// At runtime the service logs every session mutation through Log()
/// while holding MutationGuard() in shared mode; SnapshotNow() (and the
/// background snapshotter thread) takes the same gate exclusively, so
/// the registry dump, the snapshot file and the WAL reset form one
/// atomic cut — no acked mutation can fall between a snapshot and the
/// log that survives it. Replay is idempotent (create-if-absent,
/// last-write-wins), so a crash after the snapshot rename but before
/// the WAL reset merely replays records the snapshot already contains.
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "persist/codec.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "support/status.h"

namespace oocq::persist {

struct DurableCatalogOptions {
  /// Directory holding the WAL and snapshots; created if missing.
  std::string data_dir;
  /// Background snapshot cadence in seconds; 0 disables the thread
  /// (snapshots then happen only via SnapshotNow(), e.g. on shutdown).
  uint32_t snapshot_interval_s = 60;
  /// Ignored, like WalOptions::group_commit_window_us (persist/wal.h).
  uint32_t group_commit_window_us = 200;
  /// Cap on containment-cache entries persisted per snapshot, across all
  /// sessions (0 = unlimited). Oldest-first within each session's cache.
  size_t max_cache_entries = 1 << 16;
  /// Test-only: forwarded to WalOptions::fail_after_bytes.
  uint64_t wal_fail_after_bytes = 0;
};

class DurableCatalog {
 public:
  struct Recovery {
    /// True when on-disk state existed but was rejected wholesale
    /// (version/fingerprint mismatch) — the catalog starts cold.
    bool cold_start = false;
    /// Human-readable recovery summary for the operator log.
    std::string note;
    uint64_t snapshot_seq = 0;
    uint64_t snapshot_records = 0;
    uint64_t wal_records = 0;
    uint64_t wal_truncated_bytes = 0;
  };

  /// Creates the data directory if needed and runs recovery. Fails only
  /// on environmental errors (unwritable directory); corruption and
  /// incompatibility degrade to a cold start recorded in recovery().
  static StatusOr<std::unique_ptr<DurableCatalog>> Open(
      DurableCatalogOptions options);

  /// Stops the snapshotter. Does NOT snapshot — callers that want a
  /// final compaction call SnapshotNow() first (OocqService does).
  ~DurableCatalog();

  DurableCatalog(const DurableCatalog&) = delete;
  DurableCatalog& operator=(const DurableCatalog&) = delete;

  /// The snapshot + WAL record stream in replay order. Valid until the
  /// first Log()/SnapshotNow(); the service applies it on construction.
  const std::vector<Record>& recovered() const { return recovered_; }
  const Recovery& recovery() const { return recovery_; }

  /// The gate every mutation must hold (shared) across its in-memory
  /// commit *and* its Log() call; see the header comment.
  std::shared_lock<std::shared_mutex> MutationGuard() {
    return std::shared_lock<std::shared_mutex>(gate_);
  }

  /// Appends one mutation to the WAL and waits for its group commit.
  /// Call with MutationGuard() held.
  Status Log(const Record& record);

  /// Dump + snapshot + WAL reset under the exclusive gate. No-op (Ok)
  /// when no dump function was registered yet.
  Status SnapshotNow();

  /// A full registry dump cut at an exact WAL position — the payload of
  /// a replication resync (docs/replication.md). Taken under the
  /// exclusive gate, so the dump plus every WAL record past `offset` in
  /// `epoch` reconstructs the primary exactly; nothing lands between.
  struct PositionedDump {
    std::vector<Record> records;
    uint64_t epoch = 0;
    uint64_t offset = 0;  // WAL byte offset of the cut
    uint64_t seq = 0;     // WAL records durable at the cut (this epoch)
  };

  /// Requires a registered dump (kFailedPrecondition otherwise — the
  /// service registers one on construction via StartSnapshotter).
  StatusOr<PositionedDump> DumpWithPosition();

  /// Registers the registry dump and starts the cadence thread
  /// (options.snapshot_interval_s; 0 registers the dump only). `dump`
  /// is called with mutations blocked and must not call back into the
  /// catalog. Idempotent.
  void StartSnapshotter(std::function<std::vector<Record>()> dump);
  /// Joins the cadence thread; further snapshots only via SnapshotNow().
  void StopSnapshotter();

  uint64_t snapshots_taken() const {
    return snapshots_taken_.load(std::memory_order_relaxed);
  }
  const DurableCatalogOptions& options() const { return options_; }
  WriteAheadLog* wal() { return wal_.get(); }

  /// The replication *term* — the write-authority generation, distinct
  /// from the WAL compaction epoch (docs/replication.md). Loaded from
  /// <data_dir>/TERM at Open() (1 when absent), bumped by promotion and
  /// adopted from higher-term peers; must only ever move forward.
  uint64_t term() const { return term_.load(std::memory_order_acquire); }

  /// Persists `term` durably (atomic tmp+rename+fsync) and publishes it.
  /// kInvalidArgument when `term` would move the persisted term backwards.
  Status SetTerm(uint64_t term);

 private:
  explicit DurableCatalog(DurableCatalogOptions options)
      : options_(std::move(options)) {}

  void SnapshotLoop();

  DurableCatalogOptions options_;
  std::unique_ptr<WriteAheadLog> wal_;
  std::vector<Record> recovered_;
  Recovery recovery_;
  uint64_t next_snapshot_seq_ = 1;

  /// Mutations shared, snapshots exclusive (see MutationGuard()).
  std::shared_mutex gate_;

  std::mutex dump_mu_;
  std::function<std::vector<Record>()> dump_;
  /// WAL appends at the time of the last snapshot — a cadence tick with
  /// nothing new appended skips the snapshot.
  uint64_t appends_at_last_snapshot_ = 0;

  std::mutex snapshotter_mu_;
  std::condition_variable snapshotter_cv_;
  std::thread snapshotter_;
  bool stop_snapshotter_ = false;

  std::atomic<uint64_t> snapshots_taken_{0};

  /// Serializes SetTerm() writers; readers use the atomic.
  std::mutex term_mu_;
  std::atomic<uint64_t> term_{1};
};

}  // namespace oocq::persist

#endif  // OOCQ_PERSIST_CATALOG_H_
