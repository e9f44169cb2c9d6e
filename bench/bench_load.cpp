// Open-loop load generator for the event-driven server core. Drives 10k+
// concurrent loopback sockets of CONTAIN traffic against an EventServer
// and writes BENCH_load.json with p50/p99/p999 against an SLO.
//
// Open loop means the request schedule is fixed in advance (an
// aggregate rate spread round-robin over the sockets) and never slows
// down because the server is slow: a request's latency is measured from
// its *scheduled* send time, so queueing delay the server causes shows
// up in the tail instead of silently throttling the generator
// (coordinated omission).
//
// Process layout: the benchmark re-execs itself (`--client_mode`) as a
// child for the client half, so the 2x fd cost of N loopback sockets
// splits across two fd tables (the container caps each process at 20k
// fds — one process cannot hold both ends of 10k+ connections plus the
// server's listener). The parent runs OocqService plus the EventServer
// in-process and reads the child's results from a temp file.
//
// The client half is itself event-driven: one epoll loop owns every
// socket, non-blocking connects (paced), buffered writes, incremental
// reply framing — the same discipline the event server uses, because a
// thread-per-socket client could not reach 10k sockets either.
//
// Exit status: non-zero when the server misses the SLO (connects
// refused, p99 over budget, or requests left unanswered), so CI can run
// this binary as a gate.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "flag_util.h"
#include "server/event_server.h"
#include "server/service.h"

namespace oocq::bench {
namespace {

using server::EventServer;
using server::EventServerOptions;
using server::OocqService;
using server::ServiceOptions;

constexpr const char* kSchema = R"(
schema Bench {
  class Vehicle { }
  class Auto under Vehicle { }
  class Trailer under Vehicle { }
  class Client { VehRented: {Vehicle}; }
  class Discount under Client { VehRented: {Auto}; }
}
)";

// Same rotating containment mix as bench_server: repeats hit the
// session's containment cache, which is the realistic steady state for
// a view catalog and keeps a single core able to answer thousands of
// decisions per second.
const char* kQueries[] = {
    "{ x | exists y (x in Vehicle & y in Discount & x in y.VehRented) }",
    "{ x | x in Auto }",
    "{ x | exists y (x in Auto & y in Client & x in y.VehRented) }",
    "{ x | x in Trailer }",
};

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Both halves need their fd table far beyond the default soft limit.
void RaiseFdLimit() {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) == 0 &&
      limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &limit);
  }
}

uint64_t Percentile(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t index = static_cast<size_t>(p * static_cast<double>(sorted.size()));
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

// ---------------------------------------------------------------------------
// Client half (the re-exec'd child): one epoll loop over all sockets.

struct ClientConn {
  int fd = -1;
  bool connected = false;  // non-blocking connect completed
  bool dead = false;
  std::string outbuf;      // unsent request bytes
  size_t out_off = 0;
  bool want_write = false;
  std::string inbuf;       // reply bytes pending framing
  size_t line_start = 0;
  size_t scan = 0;
  bool frame_is_err = false;
  bool at_frame_start = true;
  std::deque<uint64_t> scheduled_us;  // send times of outstanding requests
};

struct ClientStats {
  uint64_t connected = 0;
  uint64_t connect_failures = 0;
  uint64_t dropped_conns = 0;   // established, then closed under us
  uint64_t sent = 0;
  uint64_t completed = 0;       // OK replies, latency recorded
  uint64_t err_replies = 0;     // ERR frames (service/transport shedding)
  uint64_t missed = 0;          // scheduled onto an already-dead socket
  uint64_t unanswered = 0;      // outstanding at grace expiry
  std::vector<uint64_t> latencies_us;
};

class OpenLoopClient {
 public:
  OpenLoopClient(uint16_t port, uint32_t sockets, uint64_t rate,
                 uint64_t duration_s, std::string session)
      : port_(port), sockets_(sockets), rate_(rate),
        total_sends_(rate * duration_s), session_(std::move(session)) {}

  int Run(ClientStats* stats) {
    epoll_fd_ = ::epoll_create1(0);
    if (epoll_fd_ < 0) {
      std::perror("epoll_create1");
      return 1;
    }
    for (int i = 0; i < 4; ++i) {
      requests_[i] = std::string("CONTAIN ") + session_ + "\n" +
                     kQueries[i % 4] + "\n" + kQueries[(i + 1) % 4] + "\n.\n";
    }
    conns_.resize(sockets_);
    if (!ConnectAll(stats)) return 1;
    Drive(stats);
    for (ClientConn& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
    ::close(epoll_fd_);
    return 0;
  }

 private:
  // Establishes all sockets before the measured phase, pacing the
  // non-blocking connects so at most kMaxPending sit in the handshake at
  // once (the listen backlog is finite; a 10k SYN burst would overflow
  // it and turn into spurious failures).
  bool ConnectAll(ClientStats* stats) {
    constexpr uint32_t kMaxPending = 512;
    uint32_t started = 0, resolved = 0, pending = 0;
    const uint64_t deadline_us = NowUs() + 60 * 1000 * 1000;
    std::vector<epoll_event> events(1024);
    while (resolved < sockets_) {
      while (started < sockets_ && pending < kMaxPending) {
        StartConnect(started++, stats, &pending, &resolved);
      }
      if (resolved == sockets_) break;
      if (NowUs() > deadline_us) {
        std::fprintf(stderr, "client: connect phase timed out (%u/%u)\n",
                     resolved, sockets_);
        return false;
      }
      int n = ::epoll_wait(epoll_fd_, events.data(),
                           static_cast<int>(events.size()), 100);
      for (int i = 0; i < n; ++i) {
        uint32_t index = static_cast<uint32_t>(events[i].data.u64);
        ClientConn& conn = conns_[index];
        if (conn.connected || conn.dead) continue;
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        ++resolved;
        --pending;
        if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0 || err != 0) {
          ::close(conn.fd);
          conn.fd = -1;
          conn.dead = true;
          ++stats->connect_failures;
          continue;
        }
        conn.connected = true;
        ++stats->connected;
        Rearm(index, /*want_write=*/false);
      }
    }
    return true;
  }

  void StartConnect(uint32_t index, ClientStats* stats, uint32_t* pending,
                    uint32_t* resolved) {
    ClientConn& conn = conns_[index];
    conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (conn.fd < 0) {
      conn.dead = true;
      ++*resolved;
      ++stats->connect_failures;
      return;
    }
    int nodelay = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                 sizeof(nodelay));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    int rc = ::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
      ::close(conn.fd);
      conn.fd = -1;
      conn.dead = true;
      ++*resolved;
      ++stats->connect_failures;
      return;
    }
    // Loopback connects may complete synchronously (rc == 0); EPOLLOUT
    // still fires and the SO_ERROR check in ConnectAll resolves it, so
    // both paths go through the same epoll registration.
    epoll_event ev{};
    ev.events = EPOLLOUT;
    ev.data.u64 = index;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &ev);
    ++*pending;
  }

  void Rearm(uint32_t index, bool want_write) {
    ClientConn& conn = conns_[index];
    conn.want_write = want_write;
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    ev.data.u64 = index;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  }

  void Kill(uint32_t index, ClientStats* stats) {
    ClientConn& conn = conns_[index];
    if (conn.dead) return;
    stats->unanswered += conn.scheduled_us.size();
    outstanding_ -= conn.scheduled_us.size();
    conn.scheduled_us.clear();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conn.fd = -1;
    conn.dead = true;
    ++stats->dropped_conns;
  }

  void FlushWrites(uint32_t index, ClientStats* stats) {
    ClientConn& conn = conns_[index];
    while (conn.out_off < conn.outbuf.size()) {
      ssize_t n = ::send(conn.fd, conn.outbuf.data() + conn.out_off,
                         conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!conn.want_write) Rearm(index, /*want_write=*/true);
        return;
      }
      if (n < 0 && errno == EINTR) continue;
      Kill(index, stats);
      return;
    }
    conn.outbuf.clear();
    conn.out_off = 0;
    if (conn.want_write) Rearm(index, /*want_write=*/false);
  }

  // Incremental reply framing: a frame ends at a line holding only ".".
  // The first line of a frame carries the status.
  void ParseReplies(uint32_t index, ClientStats* stats) {
    ClientConn& conn = conns_[index];
    while (true) {
      size_t nl = conn.inbuf.find('\n', conn.scan);
      if (nl == std::string::npos) {
        conn.scan = conn.inbuf.size();
        break;
      }
      if (conn.at_frame_start) {
        conn.frame_is_err = conn.inbuf.compare(conn.line_start, 3, "ERR") == 0;
        conn.at_frame_start = false;
      }
      bool frame_done = nl == conn.line_start + 1 &&
                        conn.inbuf[conn.line_start] == '.';
      conn.line_start = nl + 1;
      conn.scan = nl + 1;
      if (!frame_done) continue;
      conn.at_frame_start = true;
      if (!conn.scheduled_us.empty()) {
        uint64_t scheduled = conn.scheduled_us.front();
        conn.scheduled_us.pop_front();
        --outstanding_;
        if (conn.frame_is_err) {
          ++stats->err_replies;
        } else {
          ++stats->completed;
          stats->latencies_us.push_back(NowUs() - scheduled);
        }
      }
    }
    if (conn.line_start > 65536) {
      conn.inbuf.erase(0, conn.line_start);
      conn.scan -= conn.line_start;
      conn.line_start = 0;
    }
  }

  void OnReadable(uint32_t index, ClientStats* stats) {
    ClientConn& conn = conns_[index];
    char chunk[16384];
    while (true) {
      ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        conn.inbuf.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      ParseReplies(index, stats);  // salvage replies that arrived with EOF
      Kill(index, stats);
      return;
    }
    ParseReplies(index, stats);
  }

  // The measured phase. Global send k (k = 0 .. total_sends-1) is due at
  // start + k/rate and goes to socket k mod sockets; replies complete in
  // FIFO order per connection, so each outstanding request is one entry
  // in the connection's scheduled-time queue.
  void Drive(ClientStats* stats) {
    const uint64_t interval_us = 1000 * 1000 / rate_;
    const uint64_t start_us = NowUs();
    const uint64_t grace_us = 5 * 1000 * 1000;
    uint64_t k = 0;
    std::vector<epoll_event> events(1024);
    stats->latencies_us.reserve(total_sends_);
    while (true) {
      uint64_t now = NowUs();
      // Launch everything due. Sends never block: bytes queue on the
      // connection's outbuf and the scheduled time is already recorded.
      while (k < total_sends_ && now >= start_us + k * interval_us) {
        uint32_t index = static_cast<uint32_t>(k % sockets_);
        uint64_t scheduled = start_us + k * interval_us;
        ++k;
        ClientConn& conn = conns_[index];
        if (conn.dead || !conn.connected) {
          ++stats->missed;
          continue;
        }
        conn.outbuf += requests_[k % 4];
        conn.scheduled_us.push_back(scheduled);
        ++outstanding_;
        ++stats->sent;
        FlushWrites(index, stats);
      }
      if (k == total_sends_ && outstanding_ == 0) break;
      if (k == total_sends_ &&
          now > start_us + total_sends_ * interval_us + grace_us) {
        stats->unanswered += outstanding_;
        outstanding_ = 0;
        break;
      }
      int timeout_ms = 10;
      if (k < total_sends_) {
        uint64_t due = start_us + k * interval_us;
        timeout_ms = due > now
                         ? static_cast<int>(
                               std::min<uint64_t>((due - now) / 1000, 10))
                         : 0;
      }
      int n = ::epoll_wait(epoll_fd_, events.data(),
                           static_cast<int>(events.size()), timeout_ms);
      for (int i = 0; i < n; ++i) {
        uint32_t index = static_cast<uint32_t>(events[i].data.u64);
        ClientConn& conn = conns_[index];
        if (conn.dead) continue;
        if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
          OnReadable(index, stats);
        }
        if (conn.dead) continue;
        if ((events[i].events & EPOLLOUT) != 0) FlushWrites(index, stats);
      }
    }
  }

  const uint16_t port_;
  const uint32_t sockets_;
  const uint64_t rate_;
  const uint64_t total_sends_;
  const std::string session_;
  std::string requests_[4];
  int epoll_fd_ = -1;
  std::vector<ClientConn> conns_;
  uint64_t outstanding_ = 0;
};

int RunClientMode(uint16_t port, uint32_t sockets, uint64_t rate,
                  uint64_t duration_s, const std::string& session,
                  const std::string& out_path) {
  RaiseFdLimit();
  ClientStats stats;
  OpenLoopClient client(port, sockets, rate, duration_s, session);
  if (int rc = client.Run(&stats); rc != 0) return rc;

  std::sort(stats.latencies_us.begin(), stats.latencies_us.end());
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::perror(out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "connected %llu\nconnect_failures %llu\ndropped_conns %llu\n"
               "sent %llu\ncompleted %llu\nerr_replies %llu\nmissed %llu\n"
               "unanswered %llu\np50_us %llu\np99_us %llu\np999_us %llu\n"
               "max_us %llu\n",
               static_cast<unsigned long long>(stats.connected),
               static_cast<unsigned long long>(stats.connect_failures),
               static_cast<unsigned long long>(stats.dropped_conns),
               static_cast<unsigned long long>(stats.sent),
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.err_replies),
               static_cast<unsigned long long>(stats.missed),
               static_cast<unsigned long long>(stats.unanswered),
               static_cast<unsigned long long>(
                   Percentile(stats.latencies_us, 0.50)),
               static_cast<unsigned long long>(
                   Percentile(stats.latencies_us, 0.99)),
               static_cast<unsigned long long>(
                   Percentile(stats.latencies_us, 0.999)),
               static_cast<unsigned long long>(
                   stats.latencies_us.empty() ? 0
                                              : stats.latencies_us.back()));
  std::fclose(out);
  return 0;
}

// ---------------------------------------------------------------------------
// Parent half: server in-process, client re-exec'd, results aggregated.

struct LoadResult {
  std::map<std::string, uint64_t> client;  // the child's key/value report
  uint64_t accepted = 0;
  uint64_t overflow_refused = 0;
  uint64_t backpressure_shed = 0;
};

int RunLoad(const char* self, uint32_t sockets, uint64_t rate,
            uint64_t duration_s, uint64_t io_threads, LoadResult* result) {
  ServiceOptions service_options;
  service_options.max_in_flight = 4;
  service_options.max_queue_depth = 256;
  OocqService service(service_options);
  StatusOr<std::string> sid = service.CreateSession(kSchema);
  if (!sid.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", sid.status().ToString().c_str());
    return 1;
  }
  EventServerOptions server_options;
  server_options.dispatch_threads = static_cast<uint32_t>(io_threads);
  EventServer server(&service, server_options);
  if (Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", started.ToString().c_str());
    return 1;
  }

  std::string out_path = "/tmp/oocq_bench_load." + std::to_string(::getpid());
  std::string port_flag = "--port=" + std::to_string(server.port());
  std::string sockets_flag = "--sockets=" + std::to_string(sockets);
  std::string rate_flag = "--rate=" + std::to_string(rate);
  std::string duration_flag = "--duration_s=" + std::to_string(duration_s);
  std::string session_flag = "--session=" + *sid;
  std::string out_flag = "--out=" + out_path;
  pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) {
    ::execl(self, "bench_load", "--client_mode", port_flag.c_str(),
            sockets_flag.c_str(), rate_flag.c_str(), duration_flag.c_str(),
            session_flag.c_str(), out_flag.c_str(),
            static_cast<char*>(nullptr));
    std::perror("execl");
    ::_exit(127);
  }
  int wait_status = 0;
  ::waitpid(pid, &wait_status, 0);
  server.Stop();
  if (!WIFEXITED(wait_status) || WEXITSTATUS(wait_status) != 0) {
    std::fprintf(stderr, "FAIL: client child exited abnormally\n");
    return 1;
  }

  std::ifstream in(out_path);
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) result->client[key] = value;
  ::unlink(out_path.c_str());
  if (result->client.find("p99_us") == result->client.end()) {
    std::fprintf(stderr, "FAIL: client report unreadable\n");
    return 1;
  }
  result->accepted = server.connections_accepted();
  const auto& metrics = service.metrics();
  result->overflow_refused = metrics.CounterValue("server/overflow_refused");
  result->backpressure_shed = metrics.CounterValue("server/backpressure_shed");
  std::printf(
      "connected=%llu/%u  completed=%llu/%llu  p50=%llu us  p99=%llu us  "
      "p999=%llu us  dropped=%llu  unanswered=%llu\n",
      static_cast<unsigned long long>(result->client["connected"]), sockets,
      static_cast<unsigned long long>(result->client["completed"]),
      static_cast<unsigned long long>(result->client["sent"]),
      static_cast<unsigned long long>(result->client["p50_us"]),
      static_cast<unsigned long long>(result->client["p99_us"]),
      static_cast<unsigned long long>(result->client["p999_us"]),
      static_cast<unsigned long long>(result->client["dropped_conns"]),
      static_cast<unsigned long long>(result->client["unanswered"]));
  return 0;
}

int Run(int argc, char** argv) {
  examples::FlagSet flags(
      "bench_load", "",
      "Open-loop load generator for the event server; writes\n"
      "BENCH_load.json and exits non-zero when the server misses the SLO.");
  uint64_t sockets = 10000;
  uint64_t rate = 2000;
  uint64_t duration_s = 10;
  uint64_t io_threads = 4;
  uint64_t slo_p99_ms = 250;
  bool client_mode = false;
  uint64_t port = 0;
  std::string session;
  std::string out_path;
  flags.Uint("sockets", &sockets, "N", "concurrent connections (default 10000)");
  flags.Uint("rate", &rate, "N", "aggregate requests/sec (default 2000)");
  flags.Uint("duration_s", &duration_s, "N", "measured seconds (default 10)");
  flags.Uint("io_threads", &io_threads, "N",
             "event-server server threads (default 4)");
  flags.Uint("slo_p99_ms", &slo_p99_ms, "N",
             "p99 budget (default 250)");
  flags.Bool("client_mode", &client_mode,
             "internal: run the re-exec'd client half");
  flags.Uint("port", &port, "N", "internal: server port (client mode)");
  flags.Str("session", &session, "ID", "internal: session id (client mode)");
  flags.Str("out", &out_path, "PATH", "internal: result file (client mode)");
  if (flags.Parse(argc, argv) != argc || sockets == 0 || rate == 0 ||
      duration_s == 0) {
    return flags.UsageError();
  }

  if (client_mode) {
    return RunClientMode(static_cast<uint16_t>(port),
                         static_cast<uint32_t>(sockets), rate, duration_s,
                         session, out_path);
  }

  RaiseFdLimit();
  std::printf("%llu sockets, %llu req/s for %llu s...\n",
              static_cast<unsigned long long>(sockets),
              static_cast<unsigned long long>(rate),
              static_cast<unsigned long long>(duration_s));
  LoadResult result;
  if (int rc = RunLoad("/proc/self/exe", static_cast<uint32_t>(sockets), rate,
                       duration_s, io_threads, &result);
      rc != 0) {
    return rc;
  }

  // The SLO: every socket served, every request answered, tail within
  // budget.
  const bool slo_pass = result.client.at("connected") == sockets &&
                        result.client.at("unanswered") == 0 &&
                        result.client.at("dropped_conns") == 0 &&
                        result.client.at("p99_us") <= slo_p99_ms * 1000;

  std::FILE* out = std::fopen("BENCH_load.json", "w");
  if (out == nullptr) {
    std::perror("BENCH_load.json");
    return 1;
  }
  auto get = [&](const char* key) -> unsigned long long {
    auto it = result.client.find(key);
    return it == result.client.end() ? 0 : it->second;
  };
  BeginBenchJson(out);
  std::fprintf(out,
               "  \"workload\": \"open-loop CONTAIN mix, %llu sockets, "
               "%llu req/s, %llu s\",\n  \"slo_p99_ms\": %llu,\n"
               "  \"slo_pass\": %s,\n",
               static_cast<unsigned long long>(sockets),
               static_cast<unsigned long long>(rate),
               static_cast<unsigned long long>(duration_s),
               static_cast<unsigned long long>(slo_p99_ms),
               slo_pass ? "true" : "false");
  std::fprintf(
      out,
      "  \"connected\": %llu, \"connect_failures\": %llu, "
      "\"dropped_conns\": %llu,\n  \"sent\": %llu, \"completed\": %llu, "
      "\"err_replies\": %llu, \"missed\": %llu, \"unanswered\": %llu,\n"
      "  \"p50_us\": %llu, \"p99_us\": %llu, \"p999_us\": %llu, "
      "\"max_us\": %llu,\n  \"accepted\": %llu, "
      "\"overflow_refused\": %llu, \"backpressure_shed\": %llu\n}\n",
      get("connected"), get("connect_failures"), get("dropped_conns"),
      get("sent"), get("completed"), get("err_replies"), get("missed"),
      get("unanswered"), get("p50_us"), get("p99_us"), get("p999_us"),
      get("max_us"), static_cast<unsigned long long>(result.accepted),
      static_cast<unsigned long long>(result.overflow_refused),
      static_cast<unsigned long long>(result.backpressure_shed));
  std::fclose(out);
  std::printf("wrote BENCH_load.json (slo_pass=%s)\n",
              slo_pass ? "true" : "false");
  return slo_pass ? 0 : 1;
}

}  // namespace
}  // namespace oocq::bench

int main(int argc, char** argv) { return oocq::bench::Run(argc, argv); }
