// Self-healing client for oocq_serve: forwards stdin to the server one
// request at a time, frames replies by their "." terminator, and — with
// --retries=N — retries retryable failures (UNAVAILABLE,
// DEADLINE_EXCEEDED, RESOURCE_EXHAUSTED, or a dropped connection) with
// exponential backoff and jitter, reconnecting as needed. Sessions and
// named queries live in the *server*, not the connection, so a replayed
// request after reconnect sees the same registry (docs/robustness.md).
//
//   oocq_client [--port=N] [--host=A.B.C.D] [--retries=N] [--backoff_ms=N]
//               < conversation.txt
//
// Example conversation (docs/server.md):
//
//   SESSION NEW
//   schema S { class A { } class A1 under A { } }
//   .
//   CONTAIN s1 deadline_ms=500
//   { x | x in A1 }
//   { x | x in A }
//   .
//   QUIT

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "flag_util.h"

namespace {

/// One protocol request: the command line plus (for payload verbs) its
/// payload lines through the "." terminator, ready to send verbatim.
struct ClientRequest {
  std::string text;
  bool is_quit = false;
};

/// Payload framing mirrors the server's (server/protocol.h): every verb
/// reads lines until "." except the no-payload control verbs.
bool VerbHasPayload(const std::string& verb, const std::string& line) {
  if (verb == "PING" || verb == "QUIT" || verb == "HEALTH" ||
      verb == "HELLO" || verb == "STATS" || verb == "REPL") {
    return false;
  }
  if (verb == "SESSION") {
    return line.find("DROP") == std::string::npos ||
           line.find("NEW") != std::string::npos;
  }
  return true;
}

std::vector<ClientRequest> ReadConversation(std::istream& in) {
  std::vector<ClientRequest> requests;
  std::string line;
  bool saw_quit = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string verb = line.substr(0, line.find(' '));
    for (char& c : verb) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    ClientRequest request;
    request.text = line + "\n";
    request.is_quit = (verb == "QUIT");
    if (VerbHasPayload(verb, line)) {
      std::string payload_line;
      while (std::getline(in, payload_line)) {
        request.text += payload_line + "\n";
        if (payload_line == ".") break;
      }
    }
    saw_quit = saw_quit || request.is_quit;
    requests.push_back(std::move(request));
    if (saw_quit) break;  // nothing after QUIT would be answered
  }
  if (!saw_quit) {
    ClientRequest quit;
    quit.text = "QUIT\n";
    quit.is_quit = true;
    requests.push_back(std::move(quit));
  }
  return requests;
}

int Connect(const std::string& host, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Reads one "."-terminated reply frame; false on connection close.
bool ReadReply(int fd, std::string* buffer, std::string* reply) {
  reply->clear();
  size_t line_start = 0;
  while (true) {
    size_t nl;
    while ((nl = buffer->find('\n', line_start)) != std::string::npos) {
      std::string line = buffer->substr(line_start, nl - line_start);
      line_start = nl + 1;
      if (line == ".") {
        reply->append(buffer->substr(0, line_start));
        buffer->erase(0, line_start);
        return true;
      }
    }
    line_start = buffer->size();
    char chunk[4096];
    ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(got));
  }
}

/// A reply whose status line is `ERR <CODE> ...` with CODE in the
/// retryable taxonomy (support/status.h IsRetryable): the server sheds
/// load, expired a deadline, or refused a budget — a later attempt may
/// succeed where this one did not.
bool IsRetryableReply(const std::string& reply) {
  if (reply.rfind("ERR ", 0) != 0) return false;
  size_t code_start = 4;
  size_t code_end = reply.find_first_of(" \n", code_start);
  std::string code = reply.substr(code_start, code_end - code_start);
  return code == "UNAVAILABLE" || code == "DEADLINE_EXCEEDED" ||
         code == "RESOURCE_EXHAUSTED";
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t port = 7733;
  uint64_t retries = 0;
  uint64_t backoff_ms = 50;
  std::string host = "127.0.0.1";
  oocq::examples::FlagSet flags(
      "oocq_client", "< conversation",
      "Forwards stdin to an oocq_serve instance one request at a time and\n"
      "frames replies by their '.' terminator (one reply per request);\n"
      "appends a QUIT if the conversation lacks one. See docs/server.md\n"
      "for the protocol and docs/robustness.md for the retry taxonomy.");
  flags.Uint("port", &port, "N", "server port (default 7733)");
  flags.Str("host", &host, "A.B.C.D", "server IPv4 address (default 127.0.0.1)");
  flags.Uint("retries", &retries, "N",
             "retry a request up to N times on a retryable failure: "
             "ERR UNAVAILABLE / DEADLINE_EXCEEDED / RESOURCE_EXHAUSTED, "
             "a refused connect, or a dropped connection "
             "(default 0 = fail fast)");
  flags.Uint("backoff_ms", &backoff_ms, "N",
             "base retry backoff; doubles per attempt with +/-50% jitter, "
             "capped at 2000ms (default 50)");
  if (flags.Parse(argc, argv) != argc) {
    std::fprintf(stderr, "error: unexpected positional argument\n");
    return flags.UsageError();
  }
  if (port == 0 || port > 65535) {
    std::fprintf(stderr, "error: --port out of range\n");
    return flags.UsageError();
  }
  if (backoff_ms == 0) backoff_ms = 1;

  std::vector<ClientRequest> requests = ReadConversation(std::cin);

  std::mt19937_64 rng(std::random_device{}());
  // Exponential backoff with +/-50% jitter, capped: attempt k sleeps
  // around backoff_ms * 2^k, the jitter decorrelating clients that all
  // saw the same shed burst.
  auto backoff = [&](uint64_t attempt) {
    uint64_t base = backoff_ms << std::min<uint64_t>(attempt, 10);
    base = std::min<uint64_t>(base, 2000);
    std::uniform_int_distribution<uint64_t> jitter(base / 2, base + base / 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(jitter(rng)));
  };

  int fd = -1;
  std::string buffer;
  std::string reply;
  uint64_t answered = 0;
  bool all_ok = true;
  for (const ClientRequest& request : requests) {
    bool done = false;
    for (uint64_t attempt = 0; attempt <= retries && !done; ++attempt) {
      if (attempt > 0) {
        std::fprintf(stderr, "oocq_client: retry %llu/%llu\n",
                     static_cast<unsigned long long>(attempt),
                     static_cast<unsigned long long>(retries));
        backoff(attempt - 1);
      }
      if (fd < 0) {
        fd = Connect(host, static_cast<uint16_t>(port));
        if (fd < 0) continue;  // refused: server restarting?
        buffer.clear();
      }
      if (!SendAll(fd, request.text) || !ReadReply(fd, &buffer, &reply)) {
        // Connection died mid-request; replaying on a fresh one is safe —
        // every protocol request is idempotent against the session
        // registry (docs/server.md).
        ::close(fd);
        fd = -1;
        continue;
      }
      if (IsRetryableReply(reply) && attempt < retries) continue;
      std::fputs(reply.c_str(), stdout);
      ++answered;
      done = true;
    }
    if (!done) {
      std::fprintf(stderr, "oocq_client: request failed after %llu attempts\n",
                   static_cast<unsigned long long>(retries + 1));
      all_ok = false;
      break;
    }
    if (request.is_quit) break;
  }
  if (fd >= 0) ::close(fd);
  return (all_ok && answered == requests.size()) ? 0 : 1;
}
