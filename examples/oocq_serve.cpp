// The oocq query service as a TCP daemon: sessions, admission control,
// deadlines, batching and (optionally) a durable catalog over the line
// protocol of docs/server.md.
//
//   oocq_serve [--port=N] [--workers=N] [--queue=N] [--threads=N]
//              [--io_threads=N] [--idle_timeout_ms=N] [--deadline_ms=N]
//              [--data-dir=DIR] [--snapshot_interval_s=N] [--failpoints=SPEC]
//              [--max_disjuncts=N] [--max_work_units=N]
//              [--max_resident_bytes=N] [--watchdog_s=N]
//              [--follow=HOST:PORT] [--promote_after_ms=N]
//              [--log-level=debug|info|warn|error|off] [--log-json]
//              [--slow_request_us=N] [--stats-file=FILE]
//              [--stats_interval_s=N] [--trace=FILE] [--metrics] [--smoke]
//
// The socket layer is one epoll set shared by --io_threads server threads
// (server/event_server.h, docs/server.md) that scales to tens of
// thousands of concurrent connections.
//
// With --data-dir the server opens a DurableCatalog in DIR
// (docs/persistence.md): restart replays snapshot + WAL, re-registers
// every session, named query and state, and warm-starts each session's
// containment cache. Without it the server is purely in-memory.
//
// With --follow=HOST:PORT the node starts as a read-only replication
// follower (docs/replication.md): it tails HOST:PORT's WAL over REPL
// SUBSCRIBE, replays every shipped record into its own service (and its
// own WAL, with --data-dir), and answers read verbs with verdicts
// identical to the primary's. Mutating verbs answer
// ERR FAILED_PRECONDITION until promotion — by REPL PROMOTE on this
// node, or automatically after the primary has been unreachable for
// --promote_after_ms milliseconds.
//
// Shutdown: SIGINT/SIGTERM stop the listener, let in-flight requests
// finish and write their responses, then drain the service (and, with
// --data-dir, take a final compacting snapshot). The signal handler only
// writes one byte to a self-pipe; all real work happens on the main
// thread.

#include <signal.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "flag_util.h"
#include "persist/catalog.h"
#include "replicate/follower.h"
#include "replicate/peer.h"
#include "server/event_server.h"
#include "server/service.h"
#include "support/log.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace {

using namespace oocq;
using namespace oocq::server;

int g_signal_pipe[2] = {-1, -1};

void OnSignal(int) {
  char byte = 1;
  // write() is async-signal-safe; the result is deliberately unused (the
  // pipe full means a byte is already pending, which is just as good).
  ssize_t ignored = ::write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}

/// Sends `script` over a fresh connection and returns everything the
/// server wrote back (empty on connect failure).
std::string RunScript(uint16_t port, const char* script) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket");
    return "";
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    std::perror("connect");
    ::close(fd);
    return "";
  }
  if (::send(fd, script, std::strlen(script), 0) < 0) {
    std::perror("send");
    ::close(fd);
    return "";
  }
  std::string all;
  char chunk[4096];
  ssize_t got;
  while ((got = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    all.append(chunk, static_cast<size_t>(got));
  }
  ::close(fd);
  return all;
}

/// True when the STATS exposition `stats` reports counter `name` above 0.
bool CounterPositive(const std::string& stats, const std::string& name) {
  const size_t at = stats.find("\n" + name + " ");
  if (at == std::string::npos) return false;
  const size_t digit = at + name.size() + 2;
  return digit < stats.size() && stats[digit] != '0';
}

/// One scripted client conversation over a real socket — the --smoke
/// self-test and a template for writing clients.
bool RunSmokeConversation(uint16_t port) {
  const char* script =
      "PING\n"
      "SESSION NEW\n"
      "schema Smoke {\n"
      "  class Vehicle { }\n"
      "  class Auto under Vehicle { }\n"
      "}\n"
      ".\n"
      "DEFINE s1 q1\n"
      "{ x | x in Auto }\n"
      ".\n"
      "CONTAIN s1 id=smoke-1\n"
      "@q1\n"
      "{ x | x in Vehicle }\n"
      ".\n"
      "MINIMIZE s1\n"
      "{ x | x in Auto & x in Vehicle }\n"
      ".\n"
      "STATS\n"
      "QUIT\n";
  std::string all = RunScript(port, script);
  std::printf("%s", all.c_str());
  // Seven replies (PING, SESSION NEW, DEFINE, CONTAIN, MINIMIZE, STATS,
  // QUIT), the containment verdict among them.
  return all.find("session=s1") != std::string::npos &&
         all.find("contained=1") != std::string::npos &&
         CounterPositive(all, "oocq_server_requests");
}

/// The warm half of the persistence smoke: the restarted server must
/// still know session s1 and its named query, and the repeated CONTAIN
/// must be answered from the warm-started cache.
bool RunWarmConversation(uint16_t port) {
  const char* script =
      "PING\n"
      "CONTAIN s1 id=smoke-warm\n"
      "@q1\n"
      "{ x | x in Vehicle }\n"
      ".\n"
      "STATS\n"
      "QUIT\n";
  std::string all = RunScript(port, script);
  std::printf("%s", all.c_str());
  return all.find("contained=1") != std::string::npos &&
         CounterPositive(all, "oocq_server_sessions_restored") &&
         CounterPositive(all, "oocq_cache_hit");
}

/// Samples the service's progress counters: requests pending while no
/// request completes across two consecutive samples means request
/// execution is wedged (e.g. every slot held by a stalled request —
/// reproducible with the service/execute=delay failpoint; the
/// pool/dispatch=delay failpoint stalls server threads before the
/// service admits their frames, so only BATCH items show as pending).
/// Threads can't be safely unwedged from
/// outside, so the watchdog alarms instead: one stderr line plus the
/// server/watchdog_stalls counter, and the HEALTH verb exposes the same
/// pending/completed state to remote probes (docs/robustness.md).
class Watchdog {
 public:
  Watchdog(const OocqService* service, uint64_t interval_s)
      : service_(service), interval_s_(interval_s) {
    if (interval_s_ > 0) thread_ = std::thread([this] { Loop(); });
  }
  ~Watchdog() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    uint64_t last_completed = service_->completed();
    while (!stop_.load(std::memory_order_acquire)) {
      // Sleep in slices so shutdown never waits out a full interval.
      for (uint64_t slept_ms = 0; slept_ms < interval_s_ * 1000 &&
                                  !stop_.load(std::memory_order_acquire);
           slept_ms += 100) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      if (stop_.load(std::memory_order_acquire)) break;
      uint64_t completed = service_->completed();
      uint32_t pending = service_->pending();
      if (pending > 0 && completed == last_completed) {
        MetricAdd("server/watchdog_stalls", 1);
        OOCQ_LOG(Warn, "watchdog")
            .Msg("requests pending and none completed — execution wedged?")
            .With("pending", static_cast<uint64_t>(pending))
            .With("interval_s", interval_s_);
      }
      last_completed = completed;
    }
  }

  const OocqService* service_;
  uint64_t interval_s_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Periodically rewrites `path` with the service's Prometheus-style STATS
/// text (docs/observability.md#stats) — the file-scrape twin of the STATS
/// verb, for environments where the collector reads files rather than
/// speaking the protocol. Write-then-rename keeps every scrape atomic.
class StatsDumper {
 public:
  StatsDumper(const OocqService* service, std::string path,
              uint64_t interval_s)
      : service_(service), path_(std::move(path)), interval_s_(interval_s) {
    if (!path_.empty() && interval_s_ > 0) {
      thread_ = std::thread([this] { Loop(); });
    }
  }
  ~StatsDumper() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    while (!stop_.load(std::memory_order_acquire)) {
      for (uint64_t slept_ms = 0; slept_ms < interval_s_ * 1000 &&
                                  !stop_.load(std::memory_order_acquire);
           slept_ms += 100) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      WriteOnce();
    }
    WriteOnce();  // final dump so shutdown state is observable
  }

  void WriteOnce() {
    const std::string text = service_->StatsText();
    const std::string tmp = path_ + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
      OOCQ_LOG(Warn, "serve").Msg("stats dump open failed").With("path", tmp);
      return;
    }
    const bool wrote =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fclose(f);
    if (!wrote || std::rename(tmp.c_str(), path_.c_str()) != 0) {
      OOCQ_LOG(Warn, "serve").Msg("stats dump failed").With("path", path_);
    }
  }

  const OocqService* service_;
  std::string path_;
  uint64_t interval_s_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Owns the node's replication tail across role changes. A node starts
/// with at most one follower (--follow); when a higher-term primary
/// fences this node (REPL DEMOTE carrying primary=HOST:PORT, or the
/// SUBSCRIBE term handshake), the service's demotion handler lands here
/// and the node rejoins the fleet as a follower of the named winner —
/// same tail machinery, new target. The mutex serializes rejoins against
/// each other and against shutdown.
class RejoinCoordinator {
 public:
  RejoinCoordinator(OocqService* service, uint32_t auto_promote_after_ms)
      : service_(service), auto_promote_after_ms_(auto_promote_after_ms) {}

  /// Installs the initial --follow tail (may be null for a primary).
  void Adopt(std::unique_ptr<replicate::Follower> follower) {
    std::lock_guard<std::mutex> lock(mu_);
    follower_ = std::move(follower);
    if (follower_) follower_->Start();
  }

  /// Demotion handler: fenced at `term`, told to follow `new_primary`.
  /// An empty target means the demoter did not name a successor (tied
  /// SUBSCRIBE handshake); the node stays fenced until a router sweep or
  /// operator names one.
  void OnDemoted(uint64_t term, const std::string& new_primary) {
    if (new_primary.empty()) {
      OOCQ_LOG(Warn, "serve")
          .Msg("fenced without a named successor; staying read-only")
          .With("term", term);
      return;
    }
    std::string host;
    uint16_t port = 0;
    if (!replicate::SplitHostPort(new_primary, &host, &port)) {
      OOCQ_LOG(Warn, "serve")
          .Msg("fenced but successor address is malformed")
          .With("term", term)
          .With("primary", new_primary);
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) return;
    // The old tail (if any) has already left its loop — a fenced node is
    // read-only again, but the loop exited at promotion time and a
    // primary never had one. Stop() just joins and detaches the probe.
    if (follower_) follower_->Stop();
    follower_.reset();
    replicate::FollowerOptions options;
    options.host = host;
    options.port = port;
    options.auto_promote_after_ms = auto_promote_after_ms_;
    follower_ = std::make_unique<replicate::Follower>(service_, options);
    follower_->Start();
    OOCQ_LOG(Info, "serve")
        .Msg("fenced; rejoining as follower of the new primary")
        .With("term", term)
        .With("primary", new_primary);
  }

  /// Stops whichever tail is current and refuses further rejoins. Call
  /// before the service drains.
  void Shutdown() {
    std::lock_guard<std::mutex> lock(mu_);
    shut_down_ = true;
    follower_.reset();  // Stop() runs in the destructor
  }

 private:
  OocqService* const service_;
  const uint32_t auto_promote_after_ms_;
  std::mutex mu_;
  bool shut_down_ = false;
  std::unique_ptr<replicate::Follower> follower_;
};

}  // namespace

int main(int argc, char** argv) {
  uint64_t port = 7733, workers = 4, queue = 64, threads = 1, deadline_ms = 0;
  uint64_t snapshot_interval_s = 60;
  uint64_t max_disjuncts = 0, max_work_units = 0, max_resident_bytes = 0;
  uint64_t watchdog_s = 5;
  uint64_t io_threads = 8, idle_timeout_ms = 0;
  uint64_t slow_request_us = 0, stats_interval_s = 10;
  uint64_t promote_after_ms = 0;
  std::string follow;
  std::string failpoints;
  std::string trace_path;
  std::string data_dir;
  std::string log_level = "info";
  std::string stats_file;
  bool want_metrics = false, smoke = false, log_json = false;
  bool no_compile = false;

  oocq::examples::FlagSet flags(
      "oocq_serve", "",
      "Line protocol on the socket; see docs/server.md. Send SIGINT for a\n"
      "graceful drain.");
  flags.Uint("port", &port, "N",
             "listen port (default 7733; 0 = ephemeral, printed on startup)");
  flags.Uint("workers", &workers, "N",
             "requests executing concurrently (default 4)");
  flags.Uint("queue", &queue, "N",
             "waiting requests beyond --workers before shedding with "
             "UNAVAILABLE (default 64)");
  flags.Uint("threads", &threads, "N",
             "engine threads per request (default 1)");
  flags.Uint("io_threads", &io_threads, "N",
             "server threads, each serving the connections it takes "
             "and running their requests (default 8; "
             "0 = one per hardware thread)");
  flags.Uint("idle_timeout_ms", &idle_timeout_ms, "N",
             "close idle connections after N ms "
             "(default 0 = never)");
  flags.Uint("deadline_ms", &deadline_ms, "N",
             "default per-request deadline (default 0 = unbounded)");
  flags.Str("data-dir", &data_dir, "DIR",
            "durable catalog directory (docs/persistence.md); "
            "default in-memory only");
  flags.Uint("snapshot_interval_s", &snapshot_interval_s, "N",
             "snapshot cadence with --data-dir (default 60; "
             "0 = snapshot only on shutdown)");
  flags.Bool("no-compile", &no_compile,
             "disable the query-compilation fast paths (bytecode VM + "
             "compiled subset scan; docs/compilation.md) for A/B runs");
  flags.Str("failpoints", &failpoints, "SPEC",
            "arm fault injection, e.g. 'wal/fsync=error@3,tcp/accept="
            "delay:50' (env OOCQ_FAILPOINTS also read)");
  flags.Uint("max_disjuncts", &max_disjuncts, "N",
             "resource ceiling; overruns return retryable "
             "RESOURCE_EXHAUSTED (default 0 = unlimited)");
  flags.Uint("max_work_units", &max_work_units, "N",
             "resource ceiling; overruns return retryable "
             "RESOURCE_EXHAUSTED (default 0 = unlimited)");
  flags.Uint("max_resident_bytes", &max_resident_bytes, "N",
             "resource ceiling; overruns return retryable "
             "RESOURCE_EXHAUSTED (default 0 = unlimited)");
  flags.Uint("watchdog_s", &watchdog_s, "N",
             "stall watchdog sampling interval (default 5; 0 disables)");
  flags.Str("follow", &follow, "HOST:PORT",
            "start as a read-only follower tailing this primary's WAL "
            "(docs/replication.md)");
  flags.Uint("promote_after_ms", &promote_after_ms, "N",
             "with --follow: self-promote to primary after the primary "
             "has been unreachable N ms (default 0 = never)");
  flags.Str("log-level", &log_level, "LEVEL",
            "stderr log threshold: debug|info|warn|error|off "
            "(default info; docs/observability.md#logging)");
  flags.Bool("log-json", &log_json,
             "emit log lines as JSONL instead of human-readable text");
  flags.Uint("slow_request_us", &slow_request_us, "N",
             "log requests slower than N microseconds at Warn with their "
             "span tree (default 0 = off)");
  flags.Str("stats-file", &stats_file, "FILE",
            "periodically rewrite FILE with Prometheus-style STATS text");
  flags.Uint("stats_interval_s", &stats_interval_s, "N",
             "--stats-file rewrite cadence (default 10)");
  flags.Str("trace", &trace_path, "FILE",
            "write a Chrome trace of all request spans on shutdown");
  flags.Bool("metrics", &want_metrics,
             "print the STATS text on shutdown");
  flags.Bool("smoke", &smoke,
             "self-test: ephemeral port, one scripted conversation, "
             "exit 0/1");
  if (flags.Parse(argc, argv) != argc) {
    std::fprintf(stderr, "error: unexpected positional argument\n");
    return flags.UsageError();
  }
  if (port > 65535) {
    std::fprintf(stderr, "error: --port out of range\n");
    return flags.UsageError();
  }
  std::string follow_host;
  uint64_t follow_port = 0;
  if (!follow.empty()) {
    size_t colon = follow.rfind(':');
    if (colon != std::string::npos) {
      follow_host = follow.substr(0, colon);
      follow_port = std::strtoull(follow.c_str() + colon + 1, nullptr, 10);
    }
    if (follow_host.empty() || follow_port == 0 || follow_port > 65535) {
      std::fprintf(stderr, "error: --follow must be HOST:PORT\n");
      return flags.UsageError();
    }
  }
  LogConfig log_config;
  if (!ParseLogLevel(log_level, &log_config.level)) {
    std::fprintf(stderr, "error: --log-level must be one of "
                         "debug|info|warn|error|off\n");
    return flags.UsageError();
  }
  log_config.json = log_json;
  ConfigureLogging(log_config);

  TraceLog trace_log;
  std::optional<TraceSession> trace_session;
  if (!trace_path.empty()) trace_session.emplace(&trace_log);

  ServiceOptions service_options;
  service_options.engine.enable_compilation = !no_compile;
  service_options.engine.parallel.num_threads = static_cast<uint32_t>(threads);
  service_options.max_in_flight = static_cast<uint32_t>(workers);
  service_options.max_queue_depth = static_cast<uint32_t>(queue);
  service_options.default_deadline_ms = deadline_ms;
  service_options.budget.max_expanded_disjuncts = max_disjuncts;
  service_options.budget.max_subset_work_units = max_work_units;
  service_options.budget.max_resident_bytes = max_resident_bytes;
  service_options.slow_request_us = slow_request_us;
  service_options.failpoints = failpoints;  // env OOCQ_FAILPOINTS also read
  service_options.read_only = !follow.empty();

  // Opens (or re-opens) the durable catalog; recovery problems degrade to
  // a logged cold start inside Open(), so failure here is environmental.
  auto open_catalog = [&]() -> std::shared_ptr<persist::DurableCatalog> {
    if (data_dir.empty()) return nullptr;
    persist::DurableCatalogOptions catalog_options;
    catalog_options.data_dir = data_dir;
    catalog_options.snapshot_interval_s =
        static_cast<uint32_t>(snapshot_interval_s);
    StatusOr<std::unique_ptr<persist::DurableCatalog>> opened =
        persist::DurableCatalog::Open(catalog_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "error: %s\n", opened.status().ToString().c_str());
      std::exit(1);
    }
    std::shared_ptr<persist::DurableCatalog> catalog = *std::move(opened);
    const persist::DurableCatalog::Recovery& recovery = catalog->recovery();
    OOCQ_LOG(Info, "serve")
        .Msg("catalog opened")
        .With("data_dir", data_dir)
        .With("note", recovery.note)
        .With("snapshot_seq", recovery.snapshot_seq)
        .With("snapshot_records", recovery.snapshot_records)
        .With("wal_records", recovery.wal_records)
        .With("wal_truncated_bytes", recovery.wal_truncated_bytes);
    return catalog;
  };

  service_options.catalog = open_catalog();
  auto service = std::make_unique<OocqService>(service_options);

  // Role changes flow through the coordinator: the initial --follow tail
  // starts here, and a demotion (split-brain fencing, docs/replication.md)
  // rejoins this node as a follower of the named winner.
  RejoinCoordinator coordinator(service.get(),
                                static_cast<uint32_t>(promote_after_ms));
  service->SetDemotionHandler(
      [&coordinator](uint64_t term, const std::string& new_primary) {
        coordinator.OnDemoted(term, new_primary);
      });

  // The replication tail, when this node is a follower. Started after the
  // server below so clients can probe REPL STATUS during the initial
  // sync; stopped before the service dies so no apply races teardown.
  std::unique_ptr<replicate::Follower> follower;
  if (!follow.empty()) {
    replicate::FollowerOptions follower_options;
    follower_options.host = follow_host;
    follower_options.port = static_cast<uint16_t>(follow_port);
    follower_options.auto_promote_after_ms =
        static_cast<uint32_t>(promote_after_ms);
    follower =
        std::make_unique<replicate::Follower>(service.get(), follower_options);
    OOCQ_LOG(Info, "serve")
        .Msg("starting as replication follower")
        .With("primary", follow)
        .With("promote_after_ms", promote_after_ms);
  }

  auto make_server = [&](uint16_t listen_port) {
    EventServerOptions options;
    options.port = listen_port;
    options.dispatch_threads = static_cast<uint32_t>(io_threads);
    options.idle_timeout_ms = idle_timeout_ms;
    return std::make_unique<EventServer>(service.get(), options);
  };
  std::unique_ptr<EventServer> server =
      make_server(smoke ? 0 : static_cast<uint16_t>(port));
  Status started = server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  OOCQ_LOG(Info, "serve")
      .Msg("listening on 127.0.0.1")
      .With("port", static_cast<uint64_t>(server->port()))
      .With("workers", static_cast<uint64_t>(service_options.max_in_flight))
      .With("queue", static_cast<uint64_t>(service_options.max_queue_depth))
      .With("threads",
            static_cast<uint64_t>(service_options.engine.parallel.num_threads))
      .With("deadline_ms", deadline_ms)
      .With("data_dir", data_dir);
  coordinator.Adopt(std::move(follower));

  std::optional<Watchdog> watchdog;
  watchdog.emplace(service.get(), watchdog_s);
  std::optional<StatsDumper> stats_dumper;
  stats_dumper.emplace(service.get(), stats_file, stats_interval_s);

  int rc = 0;
  if (smoke) {
    coordinator.Shutdown();  // --smoke and --follow do not combine
    bool ok = RunSmokeConversation(server->port());
    server->Stop();
    server.reset();
    if (ok && !data_dir.empty()) {
      stats_dumper.reset();
      watchdog.reset();
      service.reset();  // final snapshot persists the warm cache
      // Second phase: a fresh service over the same data dir must restore
      // s1, @q1 and the cache without any re-registration.
      service_options.catalog = open_catalog();
      service = std::make_unique<OocqService>(service_options);
      watchdog.emplace(service.get(), watchdog_s);
      stats_dumper.emplace(service.get(), stats_file, stats_interval_s);
      server = make_server(0);
      started = server->Start();
      if (!started.ok()) {
        std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
        return 1;
      }
      ok = RunWarmConversation(server->port());
      server->Stop();
      server.reset();
    }
    if (want_metrics) {
      std::printf("%s", service->StatsText().c_str());
    }
    stats_dumper.reset();
    watchdog.reset();
    service.reset();
    std::fprintf(stderr, "smoke: %s\n", ok ? "PASS" : "FAIL");
    rc = ok ? 0 : 1;
  } else {
    if (::pipe(g_signal_pipe) != 0) {
      std::perror("pipe");
      return 1;
    }
    struct sigaction action{};
    action.sa_handler = OnSignal;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);

    char byte;
    while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    OOCQ_LOG(Info, "serve")
        .Msg("draining")
        .With("connections", server->connections_accepted());
    server->Stop();  // graceful: in-flight requests finish and respond
    if (want_metrics) {
      std::printf("%s", service->StatsText().c_str());
    }
    server.reset();
    coordinator.Shutdown();  // stops the tail before the service drains
    stats_dumper.reset();  // final dump happens before the service dies
    watchdog.reset();
    service.reset();  // drains, then final catalog snapshot
    OOCQ_LOG(Info, "serve").Msg("drained, shutting down");
  }

  trace_session.reset();
  if (!trace_path.empty()) {
    Status written = trace_log.WriteChromeTrace(trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: wrote %zu span(s) to %s\n",
                 trace_log.events().size(), trace_path.c_str());
  }
  return rc;
}
