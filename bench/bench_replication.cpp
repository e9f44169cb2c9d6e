// E17 — replication lag under sustained mutation load
// (docs/replication.md): a primary service behind a real transport, a
// follower tailing it through replicate::Follower over real sockets, and
// a closed-loop mutator driving ~1k DefineQuery records per second. A
// sampler thread watches both ends and stamps, per record, the moment it
// became durable on the primary (WAL synced_seq crosses it) and the
// moment the follower applied it. Lag = applied − durable.
//
// Standalone binary (no google-benchmark): writes BENCH_replication.json
// with lag p50/p99 and achieved throughput, and asserts the subsystem's
// acceptance bound — lag p50 under one pacing interval (1 ms) — plus
// verdict parity between primary and follower after the load.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "persist/catalog.h"
#include "persist/wal.h"
#include "replicate/follower.h"
#include "server/event_server.h"
#include "server/service.h"
#include "support/failpoint.h"
#include "support/file.h"
#include "support/status.h"

namespace oocq::bench {
namespace {

using server::EventServer;
using server::EventServerOptions;
using server::OocqService;
using server::Request;
using server::RequestKind;
using server::Response;
using server::ServiceOptions;

// The mutators are paced to one record per interval, the target ~1k
// records/s.
constexpr uint32_t kPaceUs = 1000;
constexpr uint32_t kWarmupRecords = 100;
constexpr uint32_t kRecords = 1000;

constexpr const char* kSchema = R"(
schema Bench {
  class Vehicle { }
  class Auto under Vehicle { }
  class Client { VehRented: {Vehicle}; }
  class Discount under Client { VehRented: {Auto}; }
}
)";

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string FreshDir(const std::string& name) {
  StatusOr<std::vector<std::string>> names = ListDir(name);
  if (names.ok()) {
    for (const std::string& file : *names) {
      MustOk(RemoveFileIfExists(name + "/" + file));
    }
  }
  MustOk(MakeDirs(name));
  return name;
}

std::shared_ptr<persist::DurableCatalog> OpenCatalog(const std::string& dir) {
  persist::DurableCatalogOptions options;
  options.data_dir = dir;
  options.snapshot_interval_s = 0;  // no compaction mid-measurement
  return std::shared_ptr<persist::DurableCatalog>(
      Must(persist::DurableCatalog::Open(options)));
}

uint64_t Percentile(std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t index = static_cast<size_t>(p * static_cast<double>(sorted.size()));
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

Request ContainRequest(const std::string& sid) {
  Request request;
  request.kind = RequestKind::kContained;
  request.session_id = sid;
  request.query = "{ x | exists y (x in Auto & y in Discount & x in y.VehRented) }";
  request.query2 = "{ x | x in Vehicle }";
  return request;
}

bool Eventually(const std::function<bool()>& predicate) {
  for (int i = 0; i < 1000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return predicate();
}

// ---- Failover time ----------------------------------------------------
// The outage window a client sees across an unplanned failover: a fresh
// primary + follower pair with auto-promotion armed, the primary
// black-holed via the net/partition failpoint (alive but unreachable —
// the split-brain shape, docs/replication.md#terms-and-fencing), and
// the clock runs from the partition to the *first write the promoted
// follower accepts*. That spans detection (the missed-poll backoff
// crossing auto_promote_after_ms) plus promotion itself (durable TERM
// bump, gates open). One trial = one sample.

constexpr uint32_t kFailoverTrials = 5;
constexpr uint32_t kPromoteAfterMs = 200;

StatusOr<uint64_t> FailoverTrial(uint32_t trial) {
  // Follower first: it outlives the primary in spirit (it ends the
  // trial as the writer).
  std::string follower_dir = FreshDir("bench_failover_follower");
  ServiceOptions follower_options;
  follower_options.catalog = OpenCatalog(follower_dir);
  follower_options.read_only = true;
  OocqService follower_service(follower_options);

  std::string primary_dir = FreshDir("bench_failover_primary");
  ServiceOptions primary_options;
  primary_options.catalog = OpenCatalog(primary_dir);
  OocqService primary(primary_options);
  EventServerOptions transport_options;
  transport_options.dispatch_threads = 2;
  EventServer transport(&primary, transport_options);
  MustOk(transport.Start());
  std::string sid = Must(primary.CreateSession(kSchema));

  replicate::FollowerOptions tail_options;
  tail_options.port = transport.port();
  tail_options.poll_wait_ms = 100;
  tail_options.backoff_ms = 20;
  tail_options.backoff_cap_ms = 50;
  tail_options.auto_promote_after_ms = kPromoteAfterMs;
  replicate::Follower follower(&follower_service, tail_options);
  follower.Start();
  if (!Eventually([&] {
        return follower.connected() &&
               follower_service.session_count() == 1 &&
               follower.lag_records() == 0;
      })) {
    return Status::Internal("failover trial: follower never synced");
  }

  // Partition, then hammer the follower with writes until one sticks.
  // The refusals before promotion are the readonly FAILED_PRECONDITION
  // a routed client would bounce off of; the first OK is the moment the
  // fleet accepts writes again.
  const std::string label = "127.0.0.1:" + std::to_string(transport.port());
  const int64_t partitioned = NowUs();
  MustOk(Failpoints::Configure("net/partition:" + label + "=error"));
  uint64_t sample = 0;
  for (uint32_t attempt = 0;; ++attempt) {
    Status written = follower_service.DefineQuery(
        sid, "f" + std::to_string(trial) + "_" + std::to_string(attempt),
        "{ x | x in Auto }");
    if (written.ok()) {
      sample = static_cast<uint64_t>(NowUs() - partitioned);
      break;
    }
    if (NowUs() - partitioned > 10'000'000) {
      Failpoints::Reset();
      return Status::Internal("failover trial: promotion never happened");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  Failpoints::Reset();  // heal before teardown dials anything
  follower.Stop();
  transport.Stop();
  return sample;
}

int Run() {
  // ---- Primary: durable catalog + service + real transport ----
  std::string primary_dir = FreshDir("bench_repl_primary");
  ServiceOptions primary_options;
  primary_options.catalog = OpenCatalog(primary_dir);
  persist::WriteAheadLog* primary_wal = primary_options.catalog->wal();
  OocqService primary(primary_options);
  EventServerOptions transport_options;
  transport_options.dispatch_threads = 2;
  EventServer transport(&primary, transport_options);
  MustOk(transport.Start());

  std::string sid = Must(primary.CreateSession(kSchema));

  // ---- Follower: read-only service + tail thread ----
  // The follower's own WAL fsyncs each record as it applies it, so the
  // measured lag is shipping + apply + one local fsync.
  std::string follower_dir = FreshDir("bench_repl_follower");
  ServiceOptions follower_options;
  follower_options.catalog = OpenCatalog(follower_dir);
  follower_options.read_only = true;
  OocqService follower_service(follower_options);
  replicate::FollowerOptions tail_options;
  tail_options.port = transport.port();
  tail_options.poll_wait_ms = 500;
  replicate::Follower follower(&follower_service, tail_options);
  follower.Start();
  if (!Eventually([&] {
        return follower.connected() && follower_service.session_count() == 1;
      })) {
    std::fprintf(stderr, "FAIL: follower never synced the seed session\n");
    return 1;
  }

  // ---- Warmup: let both WALs, the stream, and the parser settle ----
  const uint64_t applied_before_warmup = follower.applied_records();
  for (uint32_t i = 0; i < kWarmupRecords; ++i) {
    MustOk(primary.DefineQuery(sid, "w" + std::to_string(i),
                               i % 2 ? "{ x | x in Auto }"
                                     : "{ x | x in Vehicle }"));
  }
  // Count, not lag_records(): that gauge is only as fresh as the last
  // poll, and the baselines below must not start with warmup records
  // still in flight.
  if (!Eventually([&] {
        return follower.applied_records() - applied_before_warmup >=
               kWarmupRecords;
      })) {
    std::fprintf(stderr, "FAIL: follower never caught up after warmup\n");
    return 1;
  }

  // ---- Measurement ----
  // Lag per record = time from DefineQuery returning (the record is
  // fsync-durable on the primary at that instant) to the follower's
  // applied-record counter covering it. The probe spins on the
  // follower's atomic — sampling both ends from outside can't resolve
  // the ordering, because reading the primary's synced seq serializes
  // behind the same WAL mutex that the commit-and-ship wakeup holds.
  //
  // Two closed-loop mutators, so appends can meet in the primary's group
  // commit. Pacing is on the shared record index, so the aggregate rate
  // targets one record per interval.
  // The probing thread measures its own records; the other thread is
  // pure load.
  const uint64_t durable_base = primary_wal->synced_seq();
  const uint64_t applied_base = follower.applied_records();
  std::vector<uint64_t> lag;
  lag.reserve(kRecords);
  const int64_t load_start = NowUs();
  std::atomic<uint32_t> next_index{0};
  auto mutate = [&](bool probe) {
    for (;;) {
      const uint32_t i = next_index.fetch_add(1, std::memory_order_relaxed);
      if (i >= kRecords) return;
      MustOk(primary.DefineQuery(sid, "m" + std::to_string(i),
                                 i % 2 ? "{ x | x in Auto }"
                                       : "{ x | x in Vehicle }"));
      if (probe) {
        // synced_seq here covers the batch this record rode in; the
        // follower applies whole batches, so "applied >= that many
        // records since the baseline" covers this record too.
        const int64_t acked = NowUs();
        const uint64_t target = primary_wal->synced_seq() - durable_base;
        while (follower.applied_records() - applied_base < target) {
          if (NowUs() - acked > 2'000'000) break;  // stuck: counted below
          std::this_thread::yield();
        }
        lag.push_back(static_cast<uint64_t>(NowUs() - acked));
      }
      const int64_t due =
          load_start + static_cast<int64_t>(i + 1) * kPaceUs;
      const int64_t now = NowUs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::microseconds(due - now));
      }
    }
  };
  std::thread load_mutator([&] { mutate(false); });
  mutate(true);
  load_mutator.join();
  const int64_t load_us = NowUs() - load_start;
  if (!Eventually([&] {
        return follower.applied_records() - applied_base >= kRecords;
      })) {
    std::fprintf(stderr, "FAIL: follower applied %llu of %u records\n",
                 static_cast<unsigned long long>(follower.applied_records() -
                                                 applied_base),
                 kRecords);
    return 1;
  }
  if (lag.size() < kRecords / 4) {
    std::fprintf(stderr, "FAIL: only %zu of %u records were probed\n",
                 lag.size(), kRecords);
    return 1;
  }
  std::sort(lag.begin(), lag.end());
  const uint64_t p50 = Percentile(lag, 0.50);
  const uint64_t p99 = Percentile(lag, 0.99);
  const double throughput =
      static_cast<double>(kRecords) * 1e6 / static_cast<double>(load_us);

  // ---- Acceptance: lag p50 under one pacing interval, and the
  // follower serves the identical verdict after the load. ----
  if (p50 >= kPaceUs) {
    std::fprintf(stderr, "FAIL: lag p50 %llu us >= pacing interval %u us\n",
                 static_cast<unsigned long long>(p50), kPaceUs);
    return 1;
  }
  Response primary_verdict = primary.Execute(ContainRequest(sid));
  Response follower_verdict = follower_service.Execute(ContainRequest(sid));
  MustOk(primary_verdict.status);
  MustOk(follower_verdict.status);
  if (primary_verdict.verdict != follower_verdict.verdict) {
    std::fprintf(stderr, "FAIL: verdict diverged between primary/follower\n");
    return 1;
  }

  follower.Stop();
  transport.Stop();

  std::printf("replication lag over %zu records at %.0f rec/s "
              "(paced at %u us): p50 %llu us, p99 %llu us\n",
              lag.size(), throughput, kPaceUs,
              static_cast<unsigned long long>(p50),
              static_cast<unsigned long long>(p99));

  // ---- Failover series ----
  std::vector<uint64_t> failover;
  failover.reserve(kFailoverTrials);
  for (uint32_t trial = 0; trial < kFailoverTrials; ++trial) {
    failover.push_back(Must(FailoverTrial(trial)));
  }
  std::sort(failover.begin(), failover.end());
  const uint64_t failover_p50 = Percentile(failover, 0.50);
  const uint64_t failover_p99 = Percentile(failover, 0.99);
  // Sanity bound, far above the expected detection + promotion cost:
  // the threshold is 200 ms, so a p50 past 1.5 s means a wedged loop.
  if (failover_p50 >= 1'500'000) {
    std::fprintf(stderr, "FAIL: failover p50 %llu us >= 1.5 s\n",
                 static_cast<unsigned long long>(failover_p50));
    return 1;
  }
  std::printf("failover (partition to first accepted write, "
              "promote_after %u ms, %u trials): p50 %llu us, p99 %llu us\n",
              kPromoteAfterMs, kFailoverTrials,
              static_cast<unsigned long long>(failover_p50),
              static_cast<unsigned long long>(failover_p99));

  std::FILE* out = std::fopen("BENCH_replication.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write BENCH_replication.json\n");
    return 1;
  }
  BeginBenchJson(out);
  std::fprintf(out, "  \"config\": {\"records\": %u, "
                    "\"pace_us\": %u, "
                    "\"target_rps\": 1000},\n",
               kRecords, kPaceUs);
  std::fprintf(out, "  \"lag\": {\"p50_us\": %llu, \"p99_us\": %llu, "
                    "\"stamped\": %zu},\n",
               static_cast<unsigned long long>(p50),
               static_cast<unsigned long long>(p99), lag.size());
  std::fprintf(out, "  \"failover\": {\"p50_us\": %llu, \"p99_us\": %llu, "
                    "\"promote_after_ms\": %u, \"trials\": %u},\n",
               static_cast<unsigned long long>(failover_p50),
               static_cast<unsigned long long>(failover_p99),
               kPromoteAfterMs, kFailoverTrials);
  std::fprintf(out, "  \"throughput_rps\": %.1f\n}\n", throughput);
  std::fclose(out);
  std::printf("wrote BENCH_replication.json\n");
  return 0;
}

}  // namespace
}  // namespace oocq::bench

int main() { return oocq::bench::Run(); }
