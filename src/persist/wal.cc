#include "persist/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "support/failpoint.h"
#include "support/file.h"
#include "support/metrics.h"
#include "support/status_macros.h"
#include "support/trace.h"

namespace oocq::persist {

namespace {

/// write(2) the whole buffer, honoring the injected fault point: bytes
/// beyond `fail_at` (0 = off) are dropped on the floor, as if the
/// process had died mid-write. Returns false on the injected fault or a
/// real write error.
bool WriteAllWithFault(int fd, const char* data, size_t size,
                       uint64_t written_so_far, uint64_t fail_at) {
  size_t allowed = size;
  bool faulted = false;
  if (fail_at != 0) {
    if (written_so_far >= fail_at) {
      allowed = 0;
      faulted = true;
    } else if (written_so_far + size > fail_at) {
      allowed = static_cast<size_t>(fail_at - written_so_far);
      faulted = true;
    }
  }
  size_t done = 0;
  while (done < allowed) {
    ssize_t n = ::write(fd, data + done, allowed - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return !faulted;
}

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

StatusOr<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path, WalOptions options) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::Internal("open wal '" + path + "': " +
                            std::strerror(errno));
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return Status::Internal("lseek wal '" + path + "': " +
                            std::strerror(errno));
  }
  std::unique_ptr<WriteAheadLog> wal(new WriteAheadLog(
      path, fd, static_cast<uint64_t>(size), options));
  if (size == 0) {
    std::string header;
    EncodeFileHeader(&header);
    if (!WriteAllWithFault(fd, header.data(), header.size(), 0, 0)) {
      return Status::Internal("write wal header '" + path + "'");
    }
    wal->bytes_ = header.size();
    OOCQ_RETURN_IF_ERROR(FsyncFd(fd));
    OOCQ_RETURN_IF_ERROR(FsyncDir(DirName(path)));
  }
  // Everything already in the file is durable (WAL-before-ack wrote it,
  // replay truncated any torn tail before this open), so tail readers
  // may serve it immediately.
  wal->synced_bytes_ = wal->bytes_;
  return wal;
}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

Status WriteAheadLog::Append(const Record& record) {
  // The durability leg of a mutation's trace path (WAL-before-ack): the
  // span covers encode + serialized write + covering fsync, so a slow
  // mutation attributes its latency to persistence, not the engine. The
  // histogram sees exactly one sample per acked append (tests pin
  // count == appended()).
  const uint64_t start_us = NowUs();
  OOCQ_TRACE_SPAN(span, "WalAppend");
  OOCQ_RETURN_IF_ERROR(Failpoints::Check("wal/append"));
  std::string frame;
  EncodeRecord(record, &frame);
  span.Arg("bytes", frame.size());

  uint64_t my_seq;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    if (broken_) {
      return Status::Internal("write-ahead log is broken; mutations are "
                              "applied in memory only");
    }
    if (!WriteAllWithFault(fd_, frame.data(), frame.size(), bytes_,
                           options_.fail_after_bytes)) {
      broken_ = true;
      // The torn bytes stay in the file — exactly what replay's tail
      // truncation exists to clean up.
      bytes_ = options_.fail_after_bytes != 0 &&
                       bytes_ < options_.fail_after_bytes
                   ? options_.fail_after_bytes
                   : bytes_;
      return Status::Internal("wal append failed mid-write (torn frame)");
    }
    bytes_ += frame.size();
    my_seq = ++write_seq_;
  }
  appended_.fetch_add(1, std::memory_order_relaxed);
  OOCQ_METRIC_ADD("persist/wal_appends", 1);
  OOCQ_METRIC_ADD("persist/wal_bytes", frame.size());
  Status synced = SyncCovering(my_seq);
  OOCQ_METRIC_RECORD("persist/wal_append_us", NowUs() - start_us);
  return synced;
}

Status WriteAheadLog::SyncCovering(uint64_t seq) {
  std::unique_lock<std::mutex> lock(sync_mu_);
  while (true) {
    if (synced_seq_ >= seq) return Status::Ok();
    if (!sync_in_flight_) break;
    // A leader is syncing; wait until its round (or a later one) covers
    // this append, or until no round is in flight. Waking on coverage
    // matters: a covered appender must not sit out the next round too.
    sync_cv_.wait(lock,
                  [&] { return synced_seq_ >= seq || !sync_in_flight_; });
  }
  // This thread leads the next sync round.
  sync_in_flight_ = true;
  const uint64_t epoch_at_start = epoch_;
  lock.unlock();

  uint64_t covered;
  uint64_t covered_bytes;
  {
    std::lock_guard<std::mutex> write_lock(write_mu_);
    covered = write_seq_;
    covered_bytes = bytes_;
  }
  const uint64_t fsync_start_us = NowUs();
  Status synced = Failpoints::Check("wal/fsync");
  if (synced.ok()) synced = FsyncFd(fd_);
  // One histogram sample per physical fsync round (count == syncs()),
  // successful or not — a failing disk should dominate the tail, not
  // vanish from it.
  OOCQ_METRIC_RECORD("persist/fsync_us", NowUs() - fsync_start_us);
  syncs_.fetch_add(1, std::memory_order_relaxed);
  OOCQ_METRIC_ADD("persist/fsyncs", 1);

  lock.lock();
  if (synced.ok() && epoch_ == epoch_at_start) {
    if (covered > synced_seq_) {
      // Appends this round durably covered beyond the ones already
      // synced: those that arrived during the previous round's fsync.
      OOCQ_METRIC_RECORD("persist/group_commit_batch", covered - synced_seq_);
    }
    // Guarded on the epoch: a Reset() racing this round already rewound
    // the durable tip, and stale coverage must not resurrect it.
    synced_seq_ = covered;
    synced_bytes_ = covered_bytes;
  }
  sync_in_flight_ = false;
  lock.unlock();
  // Wakes both appenders waiting for coverage and tail readers parked
  // in WaitDurable() — the ship path sees each group commit as it lands.
  sync_cv_.notify_all();
  return synced;
}

Status WriteAheadLog::Reset() {
  std::string header;
  EncodeFileHeader(&header);
  std::lock_guard<std::mutex> write_lock(write_mu_);
  std::lock_guard<std::mutex> sync_lock(sync_mu_);
  if (::ftruncate(fd_, 0) != 0) {
    return Status::Internal("ftruncate wal: " + std::string(std::strerror(errno)));
  }
  // O_APPEND writes always land at the (new) end; rewrite the header.
  if (!WriteAllWithFault(fd_, header.data(), header.size(), 0, 0)) {
    broken_ = true;
    return Status::Internal("rewrite wal header after reset");
  }
  bytes_ = header.size();
  broken_ = false;
  write_seq_ = 0;
  synced_seq_ = 0;
  synced_bytes_ = header.size();
  ++epoch_;
  OOCQ_METRIC_ADD("persist/wal_resets", 1);
  Status synced = FsyncFd(fd_);
  // Parked tail readers must learn the epoch moved on — their offsets
  // just became meaningless and they need to resync from the snapshot.
  sync_cv_.notify_all();
  return synced;
}

uint64_t WriteAheadLog::epoch() const {
  std::lock_guard<std::mutex> lock(sync_mu_);
  return epoch_;
}

uint64_t WriteAheadLog::synced_bytes() const {
  std::lock_guard<std::mutex> lock(sync_mu_);
  return synced_bytes_;
}

uint64_t WriteAheadLog::synced_seq() const {
  std::lock_guard<std::mutex> lock(sync_mu_);
  return synced_seq_;
}

void WriteAheadLog::NoteExistingRecords(uint64_t count) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  std::lock_guard<std::mutex> sync_lock(sync_mu_);
  write_seq_ += count;
  synced_seq_ += count;
}

bool WriteAheadLog::WaitDurable(uint64_t offset, uint32_t timeout_ms) const {
  std::unique_lock<std::mutex> lock(sync_mu_);
  const uint64_t epoch_at_entry = epoch_;
  sync_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return synced_bytes_ > offset || epoch_ != epoch_at_entry;
  });
  return synced_bytes_ > offset || epoch_ != epoch_at_entry;
}

StatusOr<WriteAheadLog::TailBatch> WriteAheadLog::ReadDurableRange(
    uint64_t from_offset, uint64_t max_bytes) const {
  TailBatch batch;
  {
    std::lock_guard<std::mutex> lock(sync_mu_);
    batch.durable_bytes = synced_bytes_;
    batch.durable_seq = synced_seq_;
    batch.epoch = epoch_;
  }
  const uint64_t header_bytes = EncodedHeaderSize();
  if (from_offset < header_bytes || from_offset > batch.durable_bytes) {
    return Status::FailedPrecondition(
        "wal offset " + std::to_string(from_offset) +
        " outside durable range [" + std::to_string(header_bytes) + ", " +
        std::to_string(batch.durable_bytes) + "]; resync required");
  }
  batch.next_offset = from_offset;
  if (from_offset == batch.durable_bytes) return batch;  // caught up

  int fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::Internal("open wal for tail read '" + path_ + "': " +
                            std::strerror(errno));
  }
  if (max_bytes == 0) max_bytes = 256 * 1024;
  const uint64_t available = batch.durable_bytes - from_offset;
  uint64_t want = std::min(available, max_bytes);
  Status failed = Status::Ok();
  std::string buffer;
  while (true) {
    buffer.resize(want);
    size_t done = 0;
    while (done < want) {
      ssize_t n = ::pread(fd, buffer.data() + done, want - done,
                          static_cast<off_t>(from_offset + done));
      if (n < 0) {
        if (errno == EINTR) continue;
        failed = Status::Internal("pread wal tail: " +
                                  std::string(std::strerror(errno)));
        break;
      }
      if (n == 0) break;  // file shrank under us — a racing Reset()
      done += static_cast<size_t>(n);
    }
    if (!failed.ok()) break;
    buffer.resize(done);

    size_t offset = 0;
    size_t frame_start = 0;
    Record record;
    DecodeResult decoded;
    while ((decoded = DecodeRecord(buffer, &offset, &record)) ==
           DecodeResult::kOk) {
      TailRecord tail;
      tail.offset = from_offset + frame_start;
      tail.frame = buffer.substr(frame_start, offset - frame_start);
      batch.records.push_back(std::move(tail));
      frame_start = offset;
    }
    if (decoded == DecodeResult::kCorrupt) {
      failed = Status::FailedPrecondition(
          "wal tail read hit a corrupt frame at offset " +
          std::to_string(from_offset + frame_start) +
          " (mid-frame offset or racing compaction); resync required");
      break;
    }
    if (!batch.records.empty() || done >= available) {
      batch.next_offset = from_offset + frame_start;
      break;
    }
    // A single frame wider than the clamp: widen the read so the caller
    // always makes progress.
    want = std::min(available, want * 2);
  }
  ::close(fd);
  if (!failed.ok()) return failed;
  {
    // A Reset() racing the read may have replaced the bytes we decoded;
    // the epoch check invalidates the whole batch in that case.
    std::lock_guard<std::mutex> lock(sync_mu_);
    if (epoch_ != batch.epoch) {
      return Status::FailedPrecondition(
          "wal compacted during tail read; resync required");
    }
  }
  OOCQ_METRIC_ADD("persist/wal_tail_reads", 1);
  OOCQ_METRIC_ADD("persist/wal_tail_records", batch.records.size());
  return batch;
}

uint64_t WriteAheadLog::appended() const {
  return appended_.load(std::memory_order_relaxed);
}

uint64_t WriteAheadLog::syncs() const {
  return syncs_.load(std::memory_order_relaxed);
}

StatusOr<WriteAheadLog::ReplayResult> WriteAheadLog::Replay(
    const std::string& path) {
  OOCQ_TRACE_SPAN(span, "WalReplay");
  ReplayResult result;
  StatusOr<std::string> contents = ReadFileToString(path);
  if (!contents.ok()) {
    if (contents.status().code() == StatusCode::kNotFound) return result;
    return contents.status();
  }
  if (contents->empty()) return result;

  size_t offset = 0;
  Status header = DecodeFileHeader(*contents, &offset);
  if (!header.ok()) {
    // Truncated header: a crash during the very first write. Treat as a
    // torn tail (empty log); anything else (mismatched version or
    // fingerprint) the caller must handle explicitly.
    if (header.code() == StatusCode::kInvalidArgument) {
      result.truncated_bytes = contents->size();
      OOCQ_RETURN_IF_ERROR(RemoveFileIfExists(path));
      return result;
    }
    return header;
  }

  Record record;
  while (DecodeRecord(*contents, &offset, &record) == DecodeResult::kOk) {
    result.records.push_back(std::move(record));
  }
  if (offset < contents->size()) {
    // Torn or corrupt tail: truncate the file back to the last intact
    // frame so the next append continues from a clean state.
    result.truncated_bytes = contents->size() - offset;
    if (::truncate(path.c_str(), static_cast<off_t>(offset)) != 0) {
      return Status::Internal("truncate wal tail: " +
                              std::string(std::strerror(errno)));
    }
    OOCQ_METRIC_ADD("persist/wal_truncated_bytes", result.truncated_bytes);
  }
  span.Arg("records", static_cast<uint64_t>(result.records.size()))
      .Arg("truncated_bytes", result.truncated_bytes);
  OOCQ_METRIC_ADD("persist/wal_replayed_records", result.records.size());
  return result;
}

}  // namespace oocq::persist
