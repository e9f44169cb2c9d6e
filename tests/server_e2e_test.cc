// End-to-end tests for the EventServer front end: an in-process server
// on an ephemeral port, real sockets, 8 concurrent client conversations,
// and a graceful shutdown that drains in-flight requests instead of
// severing them.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "persist/catalog.h"
#include "server/event_server.h"
#include "server/service.h"
#include "support/file.h"
#include "support/metrics.h"
#include "support/trace.h"
#include "test_util.h"

namespace oocq::server {
namespace {

/// A blocking test client: connect, send raw text, read "."-framed
/// replies.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  bool Send(const std::string& text) {
    return ::send(fd_, text.data(), text.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(text.size());
  }

  /// Reads one reply frame (through its "." line); empty on EOF.
  std::string ReadReply() {
    std::string reply;
    size_t line_start = 0;
    while (true) {
      size_t nl;
      while ((nl = buffer_.find('\n', line_start)) != std::string::npos) {
        std::string line = buffer_.substr(line_start, nl - line_start);
        line_start = nl + 1;
        if (line == ".") {
          reply = buffer_.substr(0, line_start);
          buffer_.erase(0, line_start);
          return reply;
        }
      }
      line_start = buffer_.size();
      char chunk[4096];
      ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(got));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

constexpr const char* kSchemaPayload =
    "schema S {\n"
    "  class A { }\n"
    "  class A1 under A { }\n"
    "  class A2 under A { }\n"
    "}\n"
    ".\n";

EventServerOptions TestServerOptions() {
  EventServerOptions options;
  options.dispatch_threads = 4;
  return options;
}

using ::oocq::testing::ExpectCompiledScan;
using ::oocq::testing::kSlowDeadlineMs;
using ::oocq::testing::SlowServiceOptions;

// The slow Cor 3.3 request (test_util.h), as wire payload: seconds of
// augmentation checks, far longer than any test deadline.
std::string SlowSchemaPayload() {
  return std::string(::oocq::testing::SlowSchemaText()) + "\n.\n";
}

std::string SlowContainPayload() {
  return ::oocq::testing::SlowQ1(::oocq::testing::kSlowN) + "\n" +
         ::oocq::testing::SlowQ2() + "\n.\n";
}

TEST(ServerE2eTest, EightConcurrentClients) {
  ServiceOptions service_options;
  service_options.max_in_flight = 4;
  OocqService service(service_options);
  EventServer server(&service, TestServerOptions());
  OOCQ_ASSERT_OK(server.Start());
  ASSERT_NE(server.port(), 0);

  constexpr int kClients = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &failures, c] {
      TestClient client(server.port());
      if (!client.connected()) {
        ++failures;
        return;
      }
      // Each client drives its own session through a full conversation.
      client.Send(std::string("SESSION NEW\n") + kSchemaPayload);
      std::string created = client.ReadReply();
      if (created.rfind("OK session=", 0) != 0) {
        ++failures;
        return;
      }
      std::string sid = created.substr(3, created.find('\n') - 3);
      sid = sid.substr(sid.find('=') + 1);

      client.Send("CONTAIN " + sid + " id=c" + std::to_string(c) +
                  "\n{ x | x in A1 }\n{ x | x in A }\n.\n");
      if (client.ReadReply().rfind("OK contained=1", 0) != 0) ++failures;

      client.Send("CONTAIN " + sid +
                  "\n{ x | x in A1 }\n{ x | x in A2 }\n.\n");
      if (client.ReadReply().rfind("OK contained=0", 0) != 0) ++failures;

      client.Send("BATCH " + sid +
                  "\nSAT\t{ x | x in A1 }\n"
                  "CONTAIN\t{ x | x in A1 }\t{ x | x in A }\n.\n");
      if (client.ReadReply().rfind("OK n=2 retryable=0\n11", 0) != 0) {
        ++failures;
      }

      client.Send("QUIT\n");
      if (client.ReadReply().rfind("OK", 0) != 0) ++failures;
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server.connections_accepted(), static_cast<uint64_t>(kClients));
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(RequestTraceE2eTest, TaggedRequestLinksSpansAcrossLayers) {
  // The tentpole end-to-end: an `ID <token>` request over a live
  // EventServer must (a) echo the token on its reply and (b) appear as
  // the `id` annotation on the linked span path socket read → dispatch
  // queue → handler → engine request → WAL append → reply write in the
  // Chrome trace export (docs/observability.md#ids).
  const std::string dir = ::testing::TempDir() + "oocq_trace_e2e";
  {
    StatusOr<std::vector<std::string>> names = ListDir(dir);
    if (names.ok()) {
      for (const std::string& file : *names) {
        (void)RemoveFileIfExists(dir + "/" + file);
      }
    }
    ASSERT_TRUE(MakeDirs(dir).ok());
  }

  TraceLog log;
  {
    TraceSession session(&log);
    ASSERT_TRUE(session.active());

    persist::DurableCatalogOptions catalog_options;
    catalog_options.data_dir = dir;
    catalog_options.snapshot_interval_s = 0;
    StatusOr<std::unique_ptr<persist::DurableCatalog>> catalog =
        persist::DurableCatalog::Open(std::move(catalog_options));
    OOCQ_ASSERT_OK(catalog.status());

    ServiceOptions service_options;
    service_options.catalog = *std::move(catalog);
    OocqService service(service_options);
    EventServer server(&service);
    OOCQ_ASSERT_OK(server.Start());

    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    // SESSION NEW writes a WAL record, so tok-41's path crosses persist.
    ASSERT_TRUE(client.Send(std::string("ID tok-41 SESSION NEW\n") +
                            kSchemaPayload));
    std::string created = client.ReadReply();
    ASSERT_EQ(created.rfind("OK id=tok-41 session=", 0), 0u) << created;
    std::string sid = created.substr(created.find("session=") + 8);
    sid = sid.substr(0, sid.find('\n'));

    ASSERT_TRUE(client.Send("ID tok-42 CONTAIN " + sid +
                            "\n{ x | x in A1 }\n{ x | x in A }\n.\n"));
    std::string contained = client.ReadReply();
    EXPECT_EQ(contained.rfind("OK id=tok-42 contained=1", 0), 0u)
        << contained;

    ASSERT_TRUE(client.Send("QUIT\n"));
    client.ReadReply();
    server.Stop();
  }

  const std::string json = log.ChromeTraceJson();
  // Both tokens made it into span annotations...
  EXPECT_NE(json.find("tok-41"), std::string::npos);
  EXPECT_NE(json.find("tok-42"), std::string::npos);
  // ...and every layer of the request path exported its span.
  for (const char* span : {"\"SocketRead\"", "\"Dispatch\"",
                           "\"HandleRequest\"", "\"Request\"",
                           "\"WalAppend\"", "\"ReplyWrite\""}) {
    EXPECT_NE(json.find(span), std::string::npos) << span << "\n" << json;
  }
}

TEST(ServerE2eTest, DeadlineEnforcedOverTheWire) {
  OocqService service(SlowServiceOptions());
  EventServer server(&service, TestServerOptions());
  OOCQ_ASSERT_OK(server.Start());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  client.Send(std::string("SESSION NEW\n") + SlowSchemaPayload());
  ASSERT_EQ(client.ReadReply().rfind("OK session=", 0), 0u);

  // The deadline trips inside the augmentation loop; the client gets a
  // distinct retryable status — not a hang, not a dropped connection.
  client.Send("CONTAIN s1 deadline_ms=" + std::to_string(kSlowDeadlineMs) +
              "\n" + SlowContainPayload());
  std::string expired = client.ReadReply();
  EXPECT_EQ(expired.rfind("ERR DEADLINE_EXCEEDED", 0), 0u) << expired;
  ExpectCompiledScan(service);

  // Same connection still serves: deadline errors are per-request.
  client.Send("PING\n");
  EXPECT_EQ(client.ReadReply(), "OK\n.\n");
  server.Stop();
}

TEST(ServerE2eTest, GracefulShutdownDrainsInFlightRequest) {
  ServiceOptions service_options = SlowServiceOptions();
  service_options.max_in_flight = 2;
  OocqService service(service_options);
  EventServer server(&service, TestServerOptions());
  OOCQ_ASSERT_OK(server.Start());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  client.Send(std::string("SESSION NEW\n") + SlowSchemaPayload());
  ASSERT_EQ(client.ReadReply().rfind("OK session=", 0), 0u);

  // Launch a request bounded at 250 ms and shut the server down while it
  // runs. Graceful drain means the reply still arrives before the
  // connection closes.
  client.Send("CONTAIN s1 deadline_ms=250\n" + SlowContainPayload());
  while (service.metrics().CounterValue("server/started") < 1) {
    std::this_thread::yield();
  }
  std::thread stopper([&server] { server.Stop(); });
  std::string reply = client.ReadReply();
  stopper.join();
  EXPECT_EQ(reply.rfind("ERR DEADLINE_EXCEEDED", 0), 0u) << reply;
  EXPECT_TRUE(service.draining());
  ExpectCompiledScan(service);

  // After the drain, new work is refused...
  Request request;
  request.kind = RequestKind::kSatisfiable;
  request.session_id = "s1";
  request.query = "{ x | x in D }";
  EXPECT_EQ(service.Execute(request).status.code(), StatusCode::kUnavailable);
  // ...and new connections are not accepted.
  TestClient late(server.port());
  if (late.connected()) {
    late.Send("PING\n");
    EXPECT_EQ(late.ReadReply(), "");
  }
}

}  // namespace
}  // namespace oocq::server
