// ProtocolHandler behavior the e2e smoke doesn't pin down: the STATS
// exposition, malformed commands, and malformed dot-stuffed frames at the
// TCP layer. A line over the reader's cap and a payload whose "."
// terminator never arrives must both drop the connection, never hang or
// crash the server, and never corrupt a neighboring connection.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "server/event_server.h"
#include "server/protocol.h"
#include "server/service.h"
#include "test_util.h"

namespace oocq::server {
namespace {

using ::oocq::testing::kVehicleRentalSchema;

TEST(ProtocolHandlerTest, MetricsSeesCacheEvictionCounter) {
  // A cache capped at one entry per shard evicts on the second distinct
  // decision; the eviction must surface in the STATS exposition.
  ServiceOptions options;
  options.engine.cache.max_entries = 1;
  options.engine.cache.num_shards = 1;
  OocqService service(options);
  StatusOr<std::string> sid = service.CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(sid.status());
  ProtocolHandler handler(&service);

  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"{ x | x in Auto }", "{ x | x in Vehicle }"},
      {"{ x | x in Truck }", "{ x | x in Vehicle }"},
      {"{ x | x in Trailer }", "{ x | x in Vehicle }"},
  };
  for (const auto& [q1, q2] : pairs) {
    ProtocolReply reply =
        handler.Handle(ParseCommandLine("CONTAIN " + *sid), {q1, q2});
    EXPECT_EQ(reply.text.rfind("OK contained=1", 0), 0u) << reply.text;
  }
  ProtocolReply stats = handler.Handle(ParseCommandLine("STATS"), {});
  EXPECT_NE(stats.text.find("\noocq_cache_evictions "), std::string::npos)
      << stats.text;
}

TEST(ProtocolHandlerTest, RequestIdPrefixParses) {
  CommandLine tagged = ParseCommandLine("ID r7 CONTAIN s1 deadline_ms=50");
  EXPECT_EQ(tagged.verb, "CONTAIN");
  EXPECT_EQ(tagged.request_id, "r7");
  ASSERT_EQ(tagged.args.size(), 1u);
  EXPECT_EQ(tagged.args[0], "s1");
  ASSERT_EQ(tagged.params.size(), 1u);
  EXPECT_EQ(tagged.params[0].first, "deadline_ms");

  // A bare `ID` with no token and no verb is not a tagged request; the
  // parser surfaces it as the (unknown) verb so Handle can ERR it.
  CommandLine bare = ParseCommandLine("ID");
  EXPECT_TRUE(bare.request_id.empty());
}

TEST(ProtocolHandlerTest, RequestIdEchoedOnOkAndErr) {
  OocqService service;
  StatusOr<std::string> sid = service.CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(sid.status());
  ProtocolHandler handler(&service);

  const std::string q = "{ x | x in Auto }";
  ProtocolReply ok = handler.Handle(
      ParseCommandLine("ID tok-42 CONTAIN " + *sid), {q, q});
  // The token is inserted right after the OK, before the verb's fields.
  EXPECT_EQ(ok.text.rfind("OK id=tok-42 contained=1", 0), 0u) << ok.text;

  ProtocolReply err = handler.Handle(
      ParseCommandLine("ID tok-43 CONTAIN no-such-session"), {q, q});
  EXPECT_EQ(err.text.rfind("ERR ", 0), 0u) << err.text;
  EXPECT_NE(err.text.find(" id=tok-43"), std::string::npos) << err.text;
}

TEST(ProtocolHandlerTest, LegacyIdParamIsNotEchoed) {
  // Clients that predate the ID prefix pass `id=` as a plain param; their
  // replies must stay byte-identical (the token still reaches spans).
  OocqService service;
  StatusOr<std::string> sid = service.CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(sid.status());
  ProtocolHandler handler(&service);

  const std::string q = "{ x | x in Auto }";
  ProtocolReply reply = handler.Handle(
      ParseCommandLine("CONTAIN " + *sid + " id=c7"), {q, q});
  EXPECT_EQ(reply.text.rfind("OK contained=1", 0), 0u) << reply.text;
  EXPECT_EQ(reply.text.find("id=c7"), std::string::npos) << reply.text;
}

TEST(ProtocolHandlerTest, StatsReplyIsPrometheusTextWithHealthGauges) {
  OocqService service;
  StatusOr<std::string> sid = service.CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(sid.status());
  ProtocolHandler handler(&service);

  const std::string q = "{ x | x in Auto }";
  ProtocolReply contained =
      handler.Handle(ParseCommandLine("CONTAIN " + *sid), {q, q});
  ASSERT_EQ(contained.text.rfind("OK", 0), 0u) << contained.text;

  ProtocolReply stats = handler.Handle(ParseCommandLine("STATS"), {});
  EXPECT_FALSE(stats.close);
  EXPECT_EQ(stats.text.rfind("OK", 0), 0u) << stats.text;
  // Prometheus exposition: typed counters and quantile summaries for the
  // per-verb latency histograms.
  EXPECT_NE(stats.text.find("# TYPE oocq_server_requests counter\n"),
            std::string::npos);
  EXPECT_NE(stats.text.find("oocq_server_requests 1\n"), std::string::npos);
  EXPECT_NE(
      stats.text.find("oocq_server_verb_contained_us{quantile=\"0.5\"} "),
      std::string::npos)
      << stats.text;
  EXPECT_NE(stats.text.find("oocq_server_verb_contained_us_count 1\n"),
            std::string::npos);
  // HEALTH's fields ride along as gauges from the same collection path.
  EXPECT_NE(stats.text.find("oocq_server_sessions 1\n"), std::string::npos);
  EXPECT_NE(stats.text.find("oocq_server_completed_total"),
            std::string::npos);
  // Replies stay "."-framed like every other verb.
  ASSERT_GE(stats.text.size(), 2u);
  EXPECT_EQ(stats.text.substr(stats.text.size() - 2), ".\n");
}

TEST(ProtocolHandlerTest, MalformedCommandsAreErrNotCrash) {
  OocqService service;
  StatusOr<std::string> sid = service.CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(sid.status());
  ProtocolHandler handler(&service);

  struct Case {
    const char* line;
    std::vector<std::string> payload;
  };
  const std::vector<Case> cases = {
      {"FROBNICATE", {}},
      {"SESSION", {}},
      {"SESSION DROP", {}},
      {"CONTAIN", {"{ x | x in Auto }", "{ x | x in Vehicle }"}},
      {"CONTAIN s999", {"{ x | x in Auto }", "{ x | x in Vehicle }"}},
      {"DEFINE s1", {"{ x | x in Auto }"}},
      {"MINIMIZE s1", {}},
      {"METRICS", {}},
  };
  for (const Case& test_case : cases) {
    ProtocolReply reply =
        handler.Handle(ParseCommandLine(test_case.line), test_case.payload);
    EXPECT_EQ(reply.text.rfind("ERR", 0), 0u)
        << "'" << test_case.line << "' got: " << reply.text;
    EXPECT_EQ(reply.text.substr(reply.text.size() - 2), ".\n");
    EXPECT_FALSE(reply.close);
  }
  // A binary verb with the wrong payload arity is an ERR, not a hang.
  ProtocolReply reply = handler.Handle(ParseCommandLine("CONTAIN " + *sid),
                                       {"{ x | x in Auto }"});
  EXPECT_EQ(reply.text.rfind("ERR", 0), 0u) << reply.text;
}

TEST(ProtocolHandlerTest, UnaryVerbsResolveNamedQueries) {
  // A unary verb's payload line arrives with its newline; `@q` must still
  // name the registered query, not a query called "q\n".
  OocqService service;
  StatusOr<std::string> sid = service.CreateSession(kVehicleRentalSchema);
  OOCQ_ASSERT_OK(sid.status());
  ProtocolHandler handler(&service);
  ProtocolReply defined = handler.Handle(
      ParseCommandLine("DEFINE " + *sid + " q"), {"{ x | x in Auto }"});
  ASSERT_EQ(defined.text.rfind("OK", 0), 0u) << defined.text;
  ProtocolReply loaded = handler.Handle(ParseCommandLine("STATE " + *sid),
                                        {"state { a1: Auto { } }"});
  ASSERT_EQ(loaded.text.rfind("OK", 0), 0u) << loaded.text;

  const std::vector<std::pair<std::string, std::string>> verbs = {
      {"EVAL", "OK nonempty=1"},
      {"SAT", "OK satisfiable=1"},
      {"MINIMIZE", "OK exact="},
  };
  for (const auto& [verb, expected] : verbs) {
    ProtocolReply reply =
        handler.Handle(ParseCommandLine(verb + " " + *sid), {"@q"});
    EXPECT_EQ(reply.text.rfind(expected, 0), 0u) << verb << ": " << reply.text;
  }
}

// ---- TCP-layer framing abuse ------------------------------------------

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
  char chunk[4096];
  ssize_t got;
  while ((got = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    all.append(chunk, static_cast<size_t>(got));
  }
  return all;
}

class TcpFramingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<OocqService>();
    OOCQ_ASSERT_OK(service_->CreateSession(kVehicleRentalSchema).status());
    EventServerOptions options;
    options.dispatch_threads = 4;
    server_ = std::make_unique<EventServer>(service_.get(), options);
    OOCQ_ASSERT_OK(server_->Start());
  }
  void TearDown() override {
    server_->Stop();
    server_.reset();
    service_.reset();
  }

  std::unique_ptr<OocqService> service_;
  std::unique_ptr<EventServer> server_;
};

TEST_F(TcpFramingTest, OversizedLineDropsConnectionButNotServer) {
  int fd = ConnectTo(server_->port());
  // > 1 MiB without a newline: the reader must give up, not buffer
  // forever.
  const std::string huge((1 << 20) + 4096, 'x');
  (void)SendString(fd, huge);  // server may drop mid-send; both are fine
  std::string reply = RecvAll(fd);  // connection closes with no reply
  EXPECT_TRUE(reply.empty()) << reply;
  ::close(fd);

  // The server is still healthy for the next client.
  int fd2 = ConnectTo(server_->port());
  ASSERT_TRUE(SendString(fd2, "PING\nQUIT\n"));
  std::string ok = RecvAll(fd2);
  EXPECT_NE(ok.find("OK"), std::string::npos) << ok;
  ::close(fd2);
}

TEST_F(TcpFramingTest, MissingPayloadTerminatorIsCleanDisconnect) {
  int fd = ConnectTo(server_->port());
  // CONTAIN opens a payload frame; the client dies before sending ".".
  ASSERT_TRUE(SendString(fd, "CONTAIN s1\n{ x | x in Auto }\n"));
  ::shutdown(fd, SHUT_WR);
  std::string reply = RecvAll(fd);
  EXPECT_TRUE(reply.empty()) << reply;  // no reply for a half frame
  ::close(fd);

  int fd2 = ConnectTo(server_->port());
  ASSERT_TRUE(SendString(fd2, "PING\nQUIT\n"));
  EXPECT_NE(RecvAll(fd2).find("OK"), std::string::npos);
  ::close(fd2);
}

TEST_F(TcpFramingTest, DotStuffedPayloadLinesAreUnstuffed) {
  int fd = ConnectTo(server_->port());
  // A payload line starting with "." must be sent dot-stuffed ("..");
  // the server unstuffs it before parsing. "." alone still terminates.
  ASSERT_TRUE(SendString(fd, "SAT s1\n..invalid on purpose\n.\nQUIT\n"));
  std::string reply = RecvAll(fd);
  // The unstuffed payload ".invalid on purpose" reaches the parser and
  // fails as a query — an ERR reply, not a framing error.
  EXPECT_NE(reply.find("ERR"), std::string::npos) << reply;
  EXPECT_NE(reply.find("OK"), std::string::npos) << reply;  // the QUIT
  ::close(fd);
}

}  // namespace
}  // namespace oocq::server
