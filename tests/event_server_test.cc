// EventServer behavior the e2e and framing suites don't pin down:
// idle-session timeouts (the timer wheel), slow-reader backpressure
// shedding (the bounded output buffer), pipelined request ordering,
// server threads serving connections independently, and hundreds of
// concurrent connections on one epoll set.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
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

/// Splits a reply stream after each terminating "." line.
std::vector<std::string> SplitReplies(const std::string& stream) {
  std::vector<std::string> replies;
  size_t start = 0;
  for (size_t end = stream.find("\n.\n"); end != std::string::npos;
       end = stream.find("\n.\n", start)) {
    replies.push_back(stream.substr(start, end + 3 - start));
    start = end + 3;
  }
  return replies;
}

/// Reads until `count` complete replies arrived, the peer closed, or a
/// read waited `timeout_ms` for bytes; returns the replies seen.
std::vector<std::string> ReadReplies(int fd, size_t count,
                                     int timeout_ms = 10000) {
  timeval timeout{timeout_ms / 1000, (timeout_ms % 1000) * 1000};
  EXPECT_EQ(
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)),
      0);
  std::string stream;
  char chunk[16384];
  while (SplitReplies(stream).size() < count) {
    ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) break;
    stream.append(chunk, static_cast<size_t>(got));
  }
  return SplitReplies(stream);
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

TEST(EventServerTest, SlowReaderShedRepliesCarryTheirIds) {
  // The slow-reader burst with every frame ID-tagged: the replies the
  // bound sheds are tagged like the ones Handle renders, so a pipelining
  // client can still match all 2000 replies to their requests.
  OocqService service;
  EventServerOptions options;
  options.max_output_buffer_bytes = 64 * 1024;
  options.so_sndbuf_bytes = 16 * 1024;
  EventServer server(&service, options);
  OOCQ_ASSERT_OK(server.Start());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 8192;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // Tags add at most 10 bytes to each reply: 2000 sheds of ~80 B still
  // stay inside the 4x hard-drop bound (see the untagged test above).
  constexpr int kRequests = 2000;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += "ID r" + std::to_string(i) + " HELLO\n";
  }
  ASSERT_TRUE(SendString(fd, burst));
  ::shutdown(fd, SHUT_WR);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  std::vector<std::string> replies = SplitReplies(RecvAll(fd));
  ::close(fd);

  ASSERT_EQ(replies.size(), static_cast<size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    const std::string status = replies[i].substr(0, replies[i].find('\n'));
    EXPECT_NE(status.find(" id=r" + std::to_string(i) + " "),
              std::string::npos)
        << "reply " << i << ": " << status;
  }
  EXPECT_GE(service.metrics().CounterValue("server/backpressure_shed"), 1u);
  EXPECT_EQ(service.metrics().CounterValue("server/slow_reader_dropped"), 0u);
  server.Stop();
}

TEST(EventServerTest, PipelinedBurstIsAnsweredInOrder) {
  // 100 frames in one write: every one is answered, in request order,
  // with its own id — no reply overtakes replies still owed.
  OocqService service;
  EventServer server(&service);
  OOCQ_ASSERT_OK(server.Start());

  constexpr int kFrames = 100;
  std::string burst;
  for (int i = 0; i < kFrames; ++i) {
    burst += "ID r" + std::to_string(i) + " PING\n";
  }
  int fd = ConnectTo(server.port());
  ASSERT_TRUE(SendString(fd, burst));
  std::vector<std::string> replies = ReadReplies(fd, kFrames);
  ::close(fd);

  ASSERT_EQ(replies.size(), static_cast<size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(replies[i], "OK id=r" + std::to_string(i) + "\n.\n");
  }
  server.Stop();
}

TEST(EventServerTest, StalledRequestDoesNotStallOtherConnections) {
  // Connection A's slow CONTAIN holds one of the two server threads for
  // its whole 250 ms deadline; connection B's PING is served by the other
  // thread and answered while A still waits.
  OocqService service(::oocq::testing::SlowServiceOptions());
  EventServerOptions options;
  options.dispatch_threads = 2;
  EventServer server(&service, options);
  OOCQ_ASSERT_OK(server.Start());

  int a = ConnectTo(server.port());
  ASSERT_TRUE(SendString(a, std::string("SESSION NEW\n") +
                                ::oocq::testing::SlowSchemaText() + "\n.\n"));
  std::vector<std::string> created = ReadReplies(a, 1);
  ASSERT_EQ(created.size(), 1u);
  ASSERT_EQ(created[0].rfind("OK session=s1", 0), 0u) << created[0];
  ASSERT_TRUE(SendString(
      a, "CONTAIN s1 deadline_ms=250\n" +
             ::oocq::testing::SlowQ1(::oocq::testing::kSlowN) + "\n" +
             ::oocq::testing::SlowQ2() + "\n.\n"));
  while (service.metrics().CounterValue("server/started") < 1) {
    std::this_thread::yield();
  }

  int b = ConnectTo(server.port());
  ASSERT_TRUE(SendString(b, "PING\n"));
  std::vector<std::string> pinged = ReadReplies(b, 1);
  char byte;
  const ssize_t early = ::recv(a, &byte, 1, MSG_DONTWAIT | MSG_PEEK);
  std::vector<std::string> contained = ReadReplies(a, 1);
  ::close(a);
  ::close(b);

  ASSERT_EQ(pinged.size(), 1u);
  EXPECT_EQ(pinged[0], "OK\n.\n");
  EXPECT_LT(early, 0) << "A's reply arrived before B's PING was answered";
  ASSERT_EQ(contained.size(), 1u);
  EXPECT_EQ(contained[0].rfind("ERR DEADLINE_EXCEEDED", 0), 0u)
      << contained[0];
  EXPECT_GT(service.metrics().CounterValue("server/loop_wakeups"), 0u);
  server.Stop();
}

TEST(EventServerTest, PipelinedConnectionsKeepTheirOrderAcrossThreads) {
  // 16 connections pipeline 50 frames each at once, a SAT/PING mix: the
  // server threads interleave the connections, and each connection still
  // gets its replies in its own request order.
  OocqService service;
  StatusOr<std::string> sid =
      service.CreateSession(::oocq::testing::kVehicleRentalSchema);
  OOCQ_ASSERT_OK(sid.status());
  EventServer server(&service);
  OOCQ_ASSERT_OK(server.Start());

  constexpr int kConns = 16;
  constexpr int kFrames = 50;
  auto tag = [](int c, int r) {
    return "c" + std::to_string(c) + "r" + std::to_string(r);
  };
  std::vector<int> fds;
  for (int c = 0; c < kConns; ++c) fds.push_back(ConnectTo(server.port()));
  for (int c = 0; c < kConns; ++c) {
    std::string burst;
    for (int r = 0; r < kFrames; ++r) {
      burst += "ID " + tag(c, r);
      burst += r % 2 == 0 ? " SAT " + *sid + "\n{ x | x in Auto }\n.\n"
                          : std::string(" PING\n");
    }
    ASSERT_TRUE(SendString(fds[c], burst));
  }
  for (int c = 0; c < kConns; ++c) {
    std::vector<std::string> replies = ReadReplies(fds[c], kFrames);
    ::close(fds[c]);
    ASSERT_EQ(replies.size(), static_cast<size_t>(kFrames)) << "conn " << c;
    for (int r = 0; r < kFrames; ++r) {
      const std::string expected =
          r % 2 == 0 ? "OK id=" + tag(c, r) + " satisfiable=1"
                     : "OK id=" + tag(c, r) + "\n.\n";
      EXPECT_EQ(replies[r].rfind(expected, 0), 0u)
          << "conn " << c << " reply " << r << ": " << replies[r];
    }
  }
  server.Stop();
}

TEST(EventServerTest, ListenerResumesAfterFdExhaustion) {
  // With the process out of fds, accept() fails with EMFILE: the server
  // leaves its listener disarmed for a 100 ms backoff instead of spinning
  // on it, then re-arms it, and the connection waiting in the backlog is
  // served. Whichever of the four threads took the listener must wake
  // for the re-arm while the others sleep; six rounds let more than one
  // thread take it.
  OocqService service;
  EventServerOptions options;
  options.dispatch_threads = 4;
  EventServer server(&service, options);
  OOCQ_ASSERT_OK(server.Start());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);

  for (uint64_t round = 1; round <= 6; ++round) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    const int next_fd = ::dup(fd);
    ASSERT_GE(next_fd, 0);
    ::close(next_fd);
    rlimit exhausted = saved;
    exhausted.rlim_cur = static_cast<rlim_t>(next_fd);  // no fd is left
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &exhausted), 0);
    const int connected =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (service.metrics().CounterValue("server/accept_backoff") < round &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
    ASSERT_EQ(connected, 0);
    EXPECT_GE(service.metrics().CounterValue("server/accept_backoff"), round);

    ASSERT_TRUE(SendString(fd, "PING\n"));
    std::vector<std::string> replies = ReadReplies(fd, 1, /*timeout_ms=*/2000);
    ::close(fd);
    ASSERT_EQ(replies.size(), 1u) << "round " << round << ": not re-armed";
    EXPECT_EQ(replies[0], "OK\n.\n");
  }
  server.Stop();
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
