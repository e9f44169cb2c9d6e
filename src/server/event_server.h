#ifndef OOCQ_SERVER_EVENT_SERVER_H_
#define OOCQ_SERVER_EVENT_SERVER_H_

/// The server's socket layer: `dispatch_threads` server threads sharing
/// one epoll(7) set, scaling concurrent sessions with sockets instead of
/// OS threads. It puts the line protocol (server/protocol.h) on a TCP
/// port; all engine work, admission control and deadlines stay in the
/// OocqService it wraps.
///
///   OocqService service(service_options);
///   EventServer server(&service, {.port = 0});  // 0 = ephemeral
///   OOCQ_RETURN_IF_ERROR(server.Start());       // threads running
///   uint16_t port = server.port();              // resolved port
///   ...
///   server.Stop();  // graceful: stop accepting, drain, join
///
/// Wire contract (pinned by server_e2e_test, server_protocol_test and
/// event_server_test):
///
///  * Start() binds, listens and begins accepting; port() then reports
///    the resolved port.
///  * Requests on one connection are answered in arrival order; clients
///    may pipeline.
///  * A framing violation (oversized line, EOF mid-payload) drops that
///    connection and only that connection.
///  * Stop() is graceful and idempotent: the listener stops accepting,
///    read sides are shut down, requests already received finish and
///    their replies are flushed, then the service drains. Safe to call
///    from a signal-handling thread; the destructor runs it.
///  * The `tcp/accept`, `tcp/read` and `tcp/write` failpoints
///    (support/failpoint.h) fire after accept() returns, before each
///    recv(), and before each reply is queued; `pool/dispatch` fires as
///    a server thread starts a parsed frame.
///
/// Architecture — Leader/Followers (Schmidt et al., PLoP 2000), with
/// EPOLLONESHOT doing the leader hand-off:
///
///   `dispatch_threads` server threads, all in epoll_wait on one set
///     │   the listener and every connection are registered one-shot:
///     │   the thread whose epoll_wait returns a connection owns it
///     ▼
///   the owner's turn: read (at most 8 × 16 KiB), frame incrementally
///     │   (ConnectionHandler, 1 MiB line cap), run each complete frame
///     │   in order through ProtocolHandler::Handle — and thus
///     │   OocqService::Execute, which runs the request on this thread
///     ▼
///   write the replies, then re-arm the connection (EPOLLIN, plus
///         EPOLLOUT while reply bytes wait on a full socket)
///
/// A request costs one epoll wakeup and two hand-offs: client → server
/// thread → client.
///
/// Per-connection invariants:
///
///  * Only the owner touches a connection's framing and reply bytes, so
///    replies leave in request order with no queue between threads.
///  * Only the owner closes a connection, under the connection table's
///    lock, so an fd number is never reused while another thread holds
///    it. Stop() and the idle sweep shutdown(2) a connection instead; its
///    owner sees EOF and closes it.
///  * The output buffer is bounded: once a slow reader lets it exceed
///    `max_output_buffer_bytes`, further requests are shed with
///    UNAVAILABLE (cheap, constant-size replies); a reader so slow that
///    even sheds accumulate past 4x the bound is dropped.
///  * An idle connection (no request running, nothing buffered) that
///    stays silent for `idle_timeout_ms` is closed by the timer wheel.
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "server/service.h"
#include "support/status.h"

namespace oocq::server {

struct EventServerOptions {
  /// Port to bind; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Bind only the loopback interface (the safe default for a local
  /// decision-procedure service); false binds all interfaces.
  bool loopback_only = true;
  /// Server threads. Each takes connections from the shared epoll set
  /// and runs their requests itself, blocking in OocqService::Execute
  /// for a request's duration, so this bounds the connections served at
  /// once. 0 = one per hardware thread.
  uint32_t dispatch_threads = 8;
  /// Close a connection with no traffic, no running request and nothing
  /// to flush after this long. 0 = never.
  uint64_t idle_timeout_ms = 0;
  /// Pending unflushed reply bytes tolerated per connection before new
  /// requests on it are shed with UNAVAILABLE (slow-reader
  /// backpressure). Dropped outright at 4x this bound.
  uint64_t max_output_buffer_bytes = 4 << 20;
  /// Concurrent connections accepted; beyond it, new sockets are closed
  /// immediately (counted as server/overflow_refused).
  uint32_t max_connections = 50000;
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default. The
  /// kernel otherwise autotunes loopback send buffers to megabytes,
  /// which hides slow readers from the `max_output_buffer_bytes` bound —
  /// set this when the bound should actually engage.
  uint32_t so_sndbuf_bytes = 0;
};

class EventServer {
 public:
  EventServer(OocqService* service, EventServerOptions options = {});
  ~EventServer();  // runs Stop()

  EventServer(const EventServer&) = delete;
  EventServer& operator=(const EventServer&) = delete;

  /// Binds, listens and starts serving. Fails (kInternal) if the port is
  /// taken or sockets are unavailable.
  Status Start();
  /// Graceful shutdown; see the wire contract above. Idempotent.
  void Stop();

  /// The bound port (resolved when options.port == 0). 0 before Start().
  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Connections accepted over the server's lifetime.
  uint64_t connections_accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }

 private:
  struct Shared;  // the epoll set, connection table and idle wheel

  /// One server thread: waits on the shared set and serves what it gets
  /// until Stop() wakes it. The timekeeper also wakes for the idle wheel.
  void Run(bool timekeeper);

  OocqService* service_;
  EventServerOptions options_;

  int listen_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: Stop() found the table empty
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> accepted_{0};
  std::vector<std::thread> threads_;
  std::unique_ptr<Shared> shared_;
};

}  // namespace oocq::server

#endif  // OOCQ_SERVER_EVENT_SERVER_H_
