// EventServer behavior the e2e and framing suites don't pin down:
// idle-session timeouts (the timer wheel), slow-reader backpressure
// shedding (the bounded output buffer), pipelined request ordering, and
// hundreds of concurrent connections on one loop.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/event_server.h"
#include "server/service.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "test_util.h"

namespace oocq::server {
namespace {

int ConnectTo(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

bool SendString(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string RecvAll(int fd) {
  std::string all;
  char chunk[16384];
  ssize_t got;
  while ((got = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    all.append(chunk, static_cast<size_t>(got));
  }
  return all;
}

size_t CountOccurrences(const std::string& haystack, const std::string& s) {
  size_t count = 0;
  for (size_t at = haystack.find(s); at != std::string::npos;
       at = haystack.find(s, at + s.size())) {
    ++count;
  }
  return count;
}

TEST(EventServerTest, IdleConnectionsTimeOutActiveOnesSurvive) {
  OocqService service;
  EventServerOptions options;
  options.idle_timeout_ms = 200;
  EventServer server(&service, options);
  OOCQ_ASSERT_OK(server.Start());

  int idle = ConnectTo(server.port());
  int active = ConnectTo(server.port());

  // The idle socket sends one PING and then goes silent; the active one
  // keeps pinging past several timeout windows.
  ASSERT_TRUE(SendString(idle, "PING\n"));
  char chunk[256];
  ASSERT_GT(::recv(idle, chunk, sizeof(chunk), 0), 0);

  std::string active_replies;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(700);
  while (std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(SendString(active, "PING\n"));
    ssize_t got = ::recv(active, chunk, sizeof(chunk), 0);
    ASSERT_GT(got, 0) << "active connection was closed";
    active_replies.append(chunk, static_cast<size_t>(got));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // The idle one is gone by now: a blocking read sees EOF, not a hang.
  EXPECT_EQ(RecvAll(idle), "");
  EXPECT_GE(service.metrics().CounterValue("server/idle_closed"), 1u);
  EXPECT_GE(CountOccurrences(active_replies, "OK"), 10u);

  ::close(idle);
  ::close(active);
  server.Stop();
}

TEST(EventServerTest, LaggingLoopDoesNotReapFreshConnections) {
  // The tcp/accept delay stalls the loop thread for four 25 ms wheel
  // ticks, so the same iteration's idle sweep covers several ticks at
  // once — including the bucket the just-accepted connection was
  // scheduled into. The connection is not idle_timeout_ms old, so its
  // first request must still be answered.
  OocqService service;
  EventServerOptions options;
  options.idle_timeout_ms = 200;
  EventServer server(&service, options);
  OOCQ_ASSERT_OK(server.Start());
  OOCQ_ASSERT_OK(Failpoints::Configure("tcp/accept=delay:100"));

  for (int i = 0; i < 3; ++i) {
    int fd = ConnectTo(server.port());
    ASSERT_TRUE(SendString(fd, "PING\n"));
    char chunk[256];
    ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    EXPECT_GT(got, 0) << "connection " << i << " reaped before its first reply";
    if (got > 0) {
      EXPECT_EQ(std::string(chunk, static_cast<size_t>(got)), "OK\n.\n");
    }
    ::close(fd);
  }
  Failpoints::Reset();
  EXPECT_EQ(service.metrics().CounterValue("server/idle_closed"), 0u);
  server.Stop();
}

TEST(EventServerTest, SlowReaderIsShedWithRetryableUnavailable) {
  OocqService service;
  OOCQ_ASSERT_OK(service.CreateSession(::oocq::testing::kVehicleRentalSchema)
                     .status());
  EventServerOptions options;
  // Small reply budget: once the kernel socket buffers fill against a
  // non-reading client, queued requests must shed instead of buffering
  // reply bytes without bound.
  options.max_output_buffer_bytes = 64 * 1024;
  options.max_pipeline_depth = 1u << 20;  // isolate the output bound
  options.so_sndbuf_bytes = 16 * 1024;    // don't let the kernel hide it
  EventServer server(&service, options);
  OOCQ_ASSERT_OK(server.Start());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // A genuinely slow reader: a tiny receive window (set before connect so
  // the handshake advertises it) and no reads until the server has
  // processed the whole burst.
  int rcvbuf = 8192;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // HELLO replies have a fixed size (185 B), shed replies 70 B. The
  // server answers until its outbox passes the 64 KiB budget — at most
  // (64 KiB + ~48 KiB of shrunken socket buffers) / 185 B ~= 620
  // requests — and sheds every later one. Even if all of them shed, the
  // outbox stays under 64 KiB + 185 B + 2000 * 70 B ~= 201 KiB, inside
  // the 256 KiB (4x) hard-drop bound, so every request gets a reply.
  constexpr int kRequests = 2000;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) burst += "HELLO\n";
  ASSERT_TRUE(SendString(fd, burst));
  ::shutdown(fd, SHUT_WR);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  // RecvAll returning at all (EOF, not a hang) is part of the contract:
  // the server either delivers or drops, it never buffers forever.
  std::string replies = RecvAll(fd);
  ::close(fd);

  // The server answered some requests, then the bound engaged: later
  // requests were shed rather than buffered, and every one of them got
  // its reply — the sheds never piled up to the hard-drop bound.
  EXPECT_EQ(CountOccurrences(replies, "\n.\n"),
            static_cast<size_t>(kRequests));
  EXPECT_GE(CountOccurrences(replies, "OK protocol=1"), 1u);
  EXPECT_GE(service.metrics().CounterValue("server/backpressure_shed"), 1u);
  EXPECT_EQ(service.metrics().CounterValue("server/slow_reader_dropped"), 0u);

  // The loop itself is unharmed: a well-behaved client still gets served.
  int fd2 = ConnectTo(server.port());
  ASSERT_TRUE(SendString(fd2, "PING\nQUIT\n"));
  EXPECT_NE(RecvAll(fd2).find("OK"), std::string::npos);
  ::close(fd2);
  server.Stop();
}

TEST(EventServerTest, PipelinedRepliesArriveInRequestOrder) {
  OocqService service;
  StatusOr<std::string> sid =
      service.CreateSession(::oocq::testing::kVehicleRentalSchema);
  OOCQ_ASSERT_OK(sid.status());
  EventServer server(&service);
  OOCQ_ASSERT_OK(server.Start());

  int fd = ConnectTo(server.port());
  ASSERT_TRUE(SendString(
      fd, "HELLO 1\nSAT " + *sid + "\n{ x | x in Auto }\n.\nPING\nQUIT\n"));
  std::string replies = RecvAll(fd);
  ::close(fd);

  size_t hello = replies.find("OK protocol=1");
  size_t sat = replies.find("OK satisfiable=1");
  size_t ping = replies.find("OK\n.\n", sat == std::string::npos ? 0 : sat);
  ASSERT_NE(hello, std::string::npos) << replies;
  ASSERT_NE(sat, std::string::npos) << replies;
  ASSERT_NE(ping, std::string::npos) << replies;
  EXPECT_LT(hello, sat);
  EXPECT_LT(sat, ping);
  server.Stop();
}

TEST(EventServerTest, LoopAndQueueGaugesUnderStalledPool) {
  // With the only dispatch worker stalled on the pool/dispatch failpoint,
  // requests from concurrent connections pile up in the dispatch queue
  // while the loop keeps reading — the depth gauge must see the pile, and
  // the loop-lag histogram must have sampled the (still-responsive) loop
  // iterations. One connection alone cannot grow the gauge: Pump keeps at
  // most one of its requests in flight to preserve reply order.
  MetricsRegistry registry;
  MetricsScope scope(&registry);
  ASSERT_TRUE(scope.active());
  OOCQ_ASSERT_OK(Failpoints::Configure("pool/dispatch=delay:15"));

  {
    OocqService service;
    EventServerOptions options;
    options.dispatch_threads = 1;  // one stalled worker = a visible queue
    EventServer server(&service, options);
    OOCQ_ASSERT_OK(server.Start());

    constexpr int kConns = 6;
    std::vector<int> fds;
    for (int i = 0; i < kConns; ++i) fds.push_back(ConnectTo(server.port()));
    for (int fd : fds) ASSERT_TRUE(SendString(fd, "PING\nQUIT\n"));
    for (int fd : fds) {
      EXPECT_EQ(RecvAll(fd).rfind("OK\n.\nOK", 0), 0u);
      ::close(fd);
    }
    server.Stop();
  }
  Failpoints::Reset();

  MetricsRegistry::Snapshot snap = registry.Snap();
  const MetricsRegistry::HistogramSnapshot* depth = nullptr;
  const MetricsRegistry::HistogramSnapshot* loop_lag = nullptr;
  const MetricsRegistry::HistogramSnapshot* wait = nullptr;
  for (const auto& histogram : snap.histograms) {
    if (histogram.name == "server/dispatch_queue_depth") depth = &histogram;
    if (histogram.name == "server/loop_iteration_us") loop_lag = &histogram;
    if (histogram.name == "server/dispatch_wait_us") wait = &histogram;
  }
  ASSERT_NE(depth, nullptr);
  ASSERT_NE(loop_lag, nullptr);
  ASSERT_NE(wait, nullptr);
  // 6 PINGs + 6 QUITs behind a worker sleeping 15ms per task: while the
  // head request stalls, the other connections' requests queue behind it.
  EXPECT_GE(depth->count, 6u);
  EXPECT_GE(depth->max, 4u);
  // The loop itself stayed live and sampled its iterations.
  EXPECT_GT(loop_lag->count, 0u);
  EXPECT_GT(registry.CounterValue("server/loop_wakeups"), 0u);
  // Dispatch wait reflects the stall: every task sits behind at least its
  // own 15ms failpoint delay, the tail behind several.
  EXPECT_GE(wait->count, 6u);
  EXPECT_GE(wait->max, 15000u);
}

TEST(EventServerTest, TwoHundredConcurrentConnectionsOneLoop) {
  OocqService service;
  EventServer server(&service);
  OOCQ_ASSERT_OK(server.Start());

  // All sockets connect and hold before any request: the loop owns every
  // connection concurrently rather than queueing accepts behind replies.
  constexpr int kConns = 200;
  std::vector<int> fds;
  fds.reserve(kConns);
  for (int i = 0; i < kConns; ++i) fds.push_back(ConnectTo(server.port()));

  for (int fd : fds) ASSERT_TRUE(SendString(fd, "PING\nQUIT\n"));
  int ok = 0;
  for (int fd : fds) {
    if (RecvAll(fd).rfind("OK\n.\nOK", 0) == 0) ++ok;
    ::close(fd);
  }
  EXPECT_EQ(ok, kConns);
  EXPECT_GE(server.connections_accepted(), static_cast<uint64_t>(kConns));
  server.Stop();
}

}  // namespace
}  // namespace oocq::server
