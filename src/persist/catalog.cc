#include "persist/catalog.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "support/file.h"
#include "support/metrics.h"
#include "support/status_macros.h"
#include "support/trace.h"

namespace oocq::persist {

namespace {

std::string WalPath(const std::string& dir) { return dir + "/wal.log"; }

std::string TermPath(const std::string& dir) { return dir + "/TERM"; }

/// Parses the TERM file body (decimal, optional trailing whitespace).
/// Returns 0 on garbage — the caller treats that as "start at term 1".
uint64_t ParseTerm(const std::string& body) {
  uint64_t term = 0;
  for (char c : body) {
    if (c == '\n' || c == '\r' || c == ' ') break;
    if (c < '0' || c > '9') return 0;
    term = term * 10 + static_cast<uint64_t>(c - '0');
  }
  return term;
}

}  // namespace

StatusOr<std::unique_ptr<DurableCatalog>> DurableCatalog::Open(
    DurableCatalogOptions options) {
  OOCQ_TRACE_SPAN(span, "CatalogOpen");
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("DurableCatalogOptions.data_dir is empty");
  }
  OOCQ_RETURN_IF_ERROR(MakeDirs(options.data_dir));

  std::unique_ptr<DurableCatalog> catalog(
      new DurableCatalog(std::move(options)));
  const std::string& dir = catalog->options_.data_dir;
  Recovery& recovery = catalog->recovery_;

  // 1. Newest readable snapshot (unreadable ones are skipped, not fatal).
  OOCQ_ASSIGN_OR_RETURN(LoadedSnapshot snapshot, LoadLatestSnapshot(dir));
  recovery.snapshot_seq = snapshot.seq;
  recovery.snapshot_records = snapshot.records.size();
  for (const std::string& reason : snapshot.skipped) {
    recovery.note += "skipped " + reason + "; ";
  }
  catalog->recovered_ = std::move(snapshot.records);

  // 2. WAL replay on top. A fingerprint/version mismatch rejects the
  // whole file: set it aside and degrade to whatever the snapshot gave
  // us (or a cold start) rather than trust stale mutations.
  StatusOr<WriteAheadLog::ReplayResult> replayed =
      WriteAheadLog::Replay(WalPath(dir));
  if (replayed.ok()) {
    recovery.wal_records = replayed->records.size();
    recovery.wal_truncated_bytes = replayed->truncated_bytes;
    for (Record& record : replayed->records) {
      catalog->recovered_.push_back(std::move(record));
    }
  } else if (replayed.status().code() == StatusCode::kFailedPrecondition) {
    recovery.note += "wal rejected (" + replayed.status().ToString() +
                     "), set aside as wal.log.stale; ";
    if (std::rename(WalPath(dir).c_str(),
                    (WalPath(dir) + ".stale").c_str()) != 0) {
      OOCQ_RETURN_IF_ERROR(RemoveFileIfExists(WalPath(dir)));
    }
    MetricAdd("persist/wal_rejected", 1);
    if (recovery.snapshot_seq == 0) recovery.cold_start = true;
  } else {
    return replayed.status();
  }
  if (recovery.snapshot_seq == 0 && !snapshot.skipped.empty() &&
      recovery.wal_records == 0) {
    recovery.cold_start = true;
  }

  if (recovery.note.empty()) {
    recovery.note = catalog->recovered_.empty()
                        ? "empty catalog"
                        : "recovered " +
                              std::to_string(catalog->recovered_.size()) +
                              " record(s)";
  }

  // 3. Open the WAL for appending; new mutations land after the replayed
  // (and tail-truncated) history.
  WalOptions wal_options;
  wal_options.fail_after_bytes = catalog->options_.wal_fail_after_bytes;
  OOCQ_ASSIGN_OR_RETURN(catalog->wal_,
                        WriteAheadLog::Open(WalPath(dir), wal_options));
  // Seed the epoch-relative sequence with the records already in the
  // file, so offsets and sequence numbers shipped to replication
  // subscribers describe the whole epoch, not just this handle's run.
  catalog->wal_->NoteExistingRecords(recovery.wal_records);

  // 4. Replication term. Absent or unreadable degrades to term 1 with a
  // recovery note — same stale-bytes-never-crash posture as the WAL.
  StatusOr<std::string> term_body = ReadFileToString(TermPath(dir));
  if (term_body.ok()) {
    uint64_t term = ParseTerm(*term_body);
    if (term == 0) {
      recovery.note += "; TERM file unreadable, reset to 1";
    } else {
      catalog->term_.store(term, std::memory_order_release);
    }
  }

  catalog->next_snapshot_seq_ = LatestSnapshotSeq(dir) + 1;
  span.Arg("snapshot_seq", recovery.snapshot_seq)
      .Arg("records", static_cast<uint64_t>(catalog->recovered_.size()))
      .Arg("cold_start", static_cast<uint64_t>(recovery.cold_start ? 1 : 0));
  MetricAdd("persist/recoveries", 1);
  MetricAdd("persist/recovered_records", catalog->recovered_.size());
  return catalog;
}

DurableCatalog::~DurableCatalog() { StopSnapshotter(); }

Status DurableCatalog::Log(const Record& record) {
  return wal_->Append(record);
}

Status DurableCatalog::SetTerm(uint64_t term) {
  std::lock_guard<std::mutex> lock(term_mu_);
  const uint64_t current = term_.load(std::memory_order_acquire);
  if (term < current) {
    return Status::InvalidArgument(
        "replication term must be monotonic: have " + std::to_string(current) +
        ", asked to set " + std::to_string(term));
  }
  if (term == current) return Status::Ok();
  // Durable before visible: a crash between the two leaves a higher
  // on-disk term than in memory, which is safe (terms only ratchet up);
  // the reverse order could ack writes under a term that does not
  // survive restart.
  OOCQ_RETURN_IF_ERROR(
      WriteFileDurable(TermPath(options_.data_dir), std::to_string(term) + "\n"));
  term_.store(term, std::memory_order_release);
  MetricAdd("persist/term_writes", 1);
  return Status::Ok();
}

Status DurableCatalog::SnapshotNow() {
  std::function<std::vector<Record>()> dump;
  {
    std::lock_guard<std::mutex> lock(dump_mu_);
    dump = dump_;
  }
  if (!dump) return Status::Ok();

  // Snapshot duration matters operationally because the gate below holds
  // off every mutation for its whole extent.
  const uint64_t start_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  OOCQ_TRACE_SPAN(span, "Snapshot");
  // Exclusive gate: no mutation commits (in memory or to the WAL) while
  // the dump, the snapshot write, and the WAL reset happen — the three
  // form one atomic cut, so the reset cannot drop an un-snapshotted
  // mutation.
  std::unique_lock<std::shared_mutex> gate(gate_);
  std::vector<Record> records = dump();
  uint64_t seq = next_snapshot_seq_;
  OOCQ_RETURN_IF_ERROR(WriteSnapshot(options_.data_dir, seq, records));
  OOCQ_RETURN_IF_ERROR(wal_->Reset());
  next_snapshot_seq_ = seq + 1;
  {
    std::lock_guard<std::mutex> lock(dump_mu_);
    appends_at_last_snapshot_ = wal_->appended();
  }
  gate.unlock();

  RemoveSnapshotsBefore(options_.data_dir, seq);
  snapshots_taken_.fetch_add(1, std::memory_order_relaxed);
  MetricRecord("persist/snapshot_us",
               static_cast<uint64_t>(
                   std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now().time_since_epoch())
                       .count()) -
                   start_us);
  span.Arg("seq", seq).Arg("records", static_cast<uint64_t>(records.size()));
  return Status::Ok();
}

StatusOr<DurableCatalog::PositionedDump> DurableCatalog::DumpWithPosition() {
  std::function<std::vector<Record>()> dump;
  {
    std::lock_guard<std::mutex> lock(dump_mu_);
    dump = dump_;
  }
  if (!dump) {
    return Status::FailedPrecondition(
        "no registry dump registered; cannot cut a positioned dump");
  }
  OOCQ_TRACE_SPAN(span, "PositionedDump");
  // Exclusive gate: with every mutation held off, the WAL's durable tip
  // equals its write tip, and the dump describes exactly the state the
  // log reaches at that tip.
  std::unique_lock<std::shared_mutex> gate(gate_);
  PositionedDump result;
  result.records = dump();
  result.epoch = wal_->epoch();
  result.offset = wal_->synced_bytes();
  result.seq = wal_->synced_seq();
  gate.unlock();
  MetricAdd("persist/positioned_dumps", 1);
  span.Arg("records", static_cast<uint64_t>(result.records.size()))
      .Arg("offset", result.offset);
  return result;
}

void DurableCatalog::StartSnapshotter(
    std::function<std::vector<Record>()> dump) {
  const bool has_dump = static_cast<bool>(dump);
  {
    std::lock_guard<std::mutex> lock(dump_mu_);
    dump_ = std::move(dump);
  }
  // A null dump detaches the provider (the service does this as it dies).
  if (!has_dump || options_.snapshot_interval_s == 0) return;
  std::lock_guard<std::mutex> lock(snapshotter_mu_);
  if (snapshotter_.joinable()) return;
  stop_snapshotter_ = false;
  snapshotter_ = std::thread([this] { SnapshotLoop(); });
}

void DurableCatalog::StopSnapshotter() {
  {
    std::lock_guard<std::mutex> lock(snapshotter_mu_);
    stop_snapshotter_ = true;
  }
  snapshotter_cv_.notify_all();
  if (snapshotter_.joinable()) snapshotter_.join();
}

void DurableCatalog::SnapshotLoop() {
  std::unique_lock<std::mutex> lock(snapshotter_mu_);
  while (!stop_snapshotter_) {
    snapshotter_cv_.wait_for(
        lock, std::chrono::seconds(options_.snapshot_interval_s),
        [this] { return stop_snapshotter_; });
    if (stop_snapshotter_) return;
    bool idle;
    {
      std::lock_guard<std::mutex> dump_lock(dump_mu_);
      idle = wal_->appended() == appends_at_last_snapshot_;
    }
    if (idle) continue;  // nothing new since the last snapshot
    lock.unlock();
    Status taken = SnapshotNow();
    if (!taken.ok()) MetricAdd("persist/snapshot_failures", 1);
    lock.lock();
  }
}

}  // namespace oocq::persist
