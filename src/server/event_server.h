#ifndef OOCQ_SERVER_EVENT_SERVER_H_
#define OOCQ_SERVER_EVENT_SERVER_H_

/// The server's socket layer: one epoll(7) readiness loop owning every
/// connection, scaling concurrent sessions with sockets instead of OS
/// threads. It puts the line protocol (server/protocol.h) on a TCP port;
/// all engine work, admission control and deadlines stay in the
/// OocqService it wraps.
///
///   OocqService service(service_options);
///   EventServer server(&service, {.port = 0});  // 0 = ephemeral
///   OOCQ_RETURN_IF_ERROR(server.Start());       // loop running
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
///  * Stop() is graceful and idempotent: the listener closes, read sides
///    are shut down, requests already received finish and their replies
///    are flushed, then the service drains. Safe to call from a
///    signal-handling thread; the destructor runs it.
///  * The `tcp/accept`, `tcp/read` and `tcp/write` failpoints
///    (support/failpoint.h) fire after accept() returns, before each
///    recv(), and before each reply is queued.
///
/// Architecture — one loop thread, `dispatch_threads` workers:
///
///   epoll loop ── owns all per-connection state machines
///     │   level-triggered, non-blocking sockets
///     │   incremental framing via ConnectionHandler (1 MiB line cap)
///     │   idle-session timeouts via a timer wheel
///     │   write buffering; EPOLLOUT-driven flushes
///     ▼
///   support/thread_pool ── runs ProtocolHandler::Handle (and thus
///     │   OocqService::Execute, which blocks on admission + engine)
///     ▼
///   completion queue + eventfd ── the worker posts the rendered reply
///         and wakes the loop, which appends it to the connection's
///         output buffer and flushes
///
/// Per-connection invariants:
///
///  * At most one request per connection executes at a time (pipelined
///    frames queue on the connection, bounded by `max_pipeline_depth` —
///    beyond it, requests are shed with a retryable ERR UNAVAILABLE
///    instead of queued).
///  * The output buffer is bounded: once a slow reader lets it exceed
///    `max_output_buffer_bytes`, further requests are shed with
///    UNAVAILABLE (cheap, constant-size replies); a reader so slow that
///    even sheds accumulate past 4x the bound is dropped.
///  * An idle connection (no request in flight, nothing buffered) that
///    stays silent for `idle_timeout_ms` is closed by the timer wheel.
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/service.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace oocq::server {

struct EventServerOptions {
  /// Port to bind; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Bind only the loopback interface (the safe default for a local
  /// decision-procedure service); false binds all interfaces.
  bool loopback_only = true;
  /// Workers executing parsed requests (each blocks in
  /// OocqService::Execute for its request's duration, so this bounds
  /// server-side concurrency). 0 = one per hardware thread.
  uint32_t dispatch_threads = 8;
  /// Close a connection with no traffic, no queued request and nothing
  /// to flush after this long. 0 = never.
  uint64_t idle_timeout_ms = 0;
  /// Pending unflushed reply bytes tolerated per connection before new
  /// requests on it are shed with UNAVAILABLE (slow-reader
  /// backpressure). Dropped outright at 4x this bound.
  uint64_t max_output_buffer_bytes = 4 << 20;
  /// Parsed-but-not-started requests tolerated per connection (clients
  /// may pipeline); beyond it, requests are shed with UNAVAILABLE.
  uint32_t max_pipeline_depth = 64;
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
  struct Loop;  // all loop-thread-only state (connections, timer wheel)
  friend struct Loop;

  /// A finished request on its way back from a pool worker to the loop.
  struct Completion {
    uint64_t conn_id = 0;
    std::string text;   // rendered reply, ready to send
    bool close = false; // QUIT: close once flushed
    bool drop = false;  // injected write failure: drop without replying
  };

  void Run();
  /// Posts a completion from a pool worker and wakes the loop.
  void PostCompletion(Completion completion);
  void WakeLoop();

  OocqService* service_;
  EventServerOptions options_;

  int listen_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: completions posted, or Stop() requested
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> accepted_{0};
  std::thread loop_thread_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Loop> loop_;

  std::mutex completions_mu_;
  std::vector<Completion> completions_;
};

}  // namespace oocq::server

#endif  // OOCQ_SERVER_EVENT_SERVER_H_
