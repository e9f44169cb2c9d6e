#include "server/event_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "server/protocol.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace oocq::server {

namespace {

/// epoll user data of the two fds that are not connections. A
/// connection's is its Connection*, which is never 0 or 1.
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeTag = 1;

uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Opens the non-blocking listening IPv4 socket per `options`
/// (SO_REUSEADDR, SOMAXCONN backlog), returning the fd and writing the
/// resolved port to *port.
StatusOr<int> OpenListener(const EventServerOptions& options, uint16_t* port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  addr.sin_addr.s_addr =
      htonl(options.loopback_only ? INADDR_LOOPBACK : INADDR_ANY);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status failed = Status::Internal(std::string("bind: ") +
                                     std::strerror(errno));
    ::close(fd);
    return failed;
  }
  // SOMAXCONN, not a small constant: an open-loop connect burst (10k+
  // sockets from bench_load) must land in the kernel backlog, not be
  // refused while the accept path catches up.
  if (::listen(fd, SOMAXCONN) < 0) {
    Status failed = Status::Internal(std::string("listen: ") +
                                     std::strerror(errno));
    ::close(fd);
    return failed;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    *port = ntohs(bound.sin_port);
  }
  return fd;
}

}  // namespace

/// What the server threads share. A connection's framing and reply bytes
/// belong to its owner: the thread whose epoll_wait returned it, until
/// that thread re-arms it. The table, the timer wheel and each
/// connection's wheel position are guarded by `mu`.
struct EventServer::Shared {
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    ConnectionHandler framing;
    std::string outbox;
    size_t out_off = 0;
    bool want_write = false;  // reply bytes wait for EPOLLOUT
    bool read_off = false;    // peer EOF or Stop(): no more reads
    bool quit = false;        // QUIT answered: close once flushed
    /// Set by the owner for its turn and kept while reply bytes wait; the
    /// idle sweep reads it without owning the connection. Its
    /// release/acquire pair also orders one owner's turn before the next
    /// owner's, which the kernel does through epoll out of sight of the
    /// C++ memory model (and of ThreadSanitizer).
    std::atomic<bool> busy{false};
    /// Re-arms still inside epoll_ctl: the next owner can take the
    /// connection before the thread that re-armed it returns. Close()
    /// waits until none is left, so that call happens-before the close
    /// (the kernel resolved the fd on entry, but only this tells TSan).
    std::atomic<uint32_t> rearming{0};
    /// NowMs() of the last traffic; the wheel only hints when to look.
    std::atomic<uint64_t> last_active_ms{0};
    /// Timer wheel membership (kNotScheduled when off the wheel); by mu.
    size_t wheel_bucket = kNotScheduled;
    std::list<uint64_t>::iterator wheel_it;

    static constexpr size_t kNotScheduled = static_cast<size_t>(-1);

    size_t pending_output() const { return outbox.size() - out_off; }
  };

  /// Hashed timing wheel for idle-session timeouts: one bucket per tick
  /// across slightly more than one timeout's worth of ticks. A
  /// connection is scheduled one full timeout ahead when accepted and
  /// whenever a sweep finds it busy or recently active. A bucket the
  /// sweep reaches is only a hint — a lagging sweep covers several ticks
  /// at once, including buckets just scheduled into — so ExpireIdle
  /// checks each connection's last activity before shutting it down.
  struct TimerWheel {
    uint64_t tick_ms = 0;
    uint64_t timeout_ticks = 0;
    uint64_t last_tick = 0;
    std::vector<std::list<uint64_t>> buckets;

    bool enabled() const { return tick_ms != 0; }

    void Init(uint64_t timeout_ms) {
      tick_ms = std::clamp<uint64_t>(timeout_ms / 8, 10, 1000);
      timeout_ticks = (timeout_ms + tick_ms - 1) / tick_ms + 1;
      buckets.assign(timeout_ticks + 1, {});
    }

    void Remove(Connection* conn) {
      if (conn->wheel_bucket == Connection::kNotScheduled) return;
      buckets[conn->wheel_bucket].erase(conn->wheel_it);
      conn->wheel_bucket = Connection::kNotScheduled;
    }

    void Schedule(Connection* conn, uint64_t now_tick) {
      Remove(conn);
      size_t bucket = (now_tick + timeout_ticks) % buckets.size();
      buckets[bucket].push_back(conn->id);
      conn->wheel_bucket = bucket;
      conn->wheel_it = std::prev(buckets[bucket].end());
    }
  };

  explicit Shared(EventServer* server) : server(server) {}

  EventServer* server;
  int epoll_fd = -1;
  uint64_t start_ms = 0;
  /// EMFILE backoff: the one-shot listener stays disarmed until this
  /// deadline (0 = not paused), so a listener that stays readable while
  /// fds are exhausted does not spin a thread.
  std::atomic<uint64_t> listener_paused_until_ms{0};
  /// The last tick the idle sweep covered; read without `mu` so a thread
  /// takes the lock only when a tick has passed.
  std::atomic<uint64_t> swept_tick{0};

  std::mutex mu;
  std::condition_variable drained;  // the table emptied (Stop() waits)
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;  // by mu
  uint64_t next_conn_id = 1;                                        // by mu
  TimerWheel wheel;                                                 // by mu

  const EventServerOptions& options() const { return server->options_; }
  bool stopping() const {
    return server->stopping_.load(std::memory_order_acquire);
  }

  uint64_t NowTick() const {
    return wheel.enabled() ? (NowMs() - start_ms) / wheel.tick_ms : 0;
  }

  /// Takes over a connection epoll just returned: the start of a turn.
  void Acquire(Connection* conn) {
    conn->busy.exchange(true, std::memory_order_acquire);
    if (wheel.enabled()) {
      conn->last_active_ms.store(NowMs(), std::memory_order_relaxed);
    }
  }

  /// The owner's last act on a connection in its turn: once epoll_ctl
  /// re-arms it, another thread may own it, and this one touches only
  /// `rearming` (which keeps the connection alive).
  void Rearm(Connection* conn) {
    epoll_event ev{};
    ev.events = EPOLLONESHOT | (conn->read_off ? 0u : EPOLLIN) |
                (conn->want_write ? EPOLLOUT : 0u);
    ev.data.ptr = conn;
    const int fd = conn->fd;
    conn->rearming.fetch_add(1, std::memory_order_relaxed);
    conn->busy.store(conn->pending_output() > 0, std::memory_order_release);
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, fd, &ev);
    conn->rearming.fetch_sub(1, std::memory_order_release);
  }

  void ArmListener() {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLONESHOT;
    ev.data.u64 = kListenerTag;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, server->listen_fd_, &ev);
  }

  /// Only the owner closes, under `mu`: Stop() and the idle sweep call
  /// shutdown(2) on fds they find in the table, and holding the lock
  /// here means none of those fd numbers is reused meanwhile.
  void Close(Connection* conn) {
    while (conn->rearming.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();  // the previous owner is still in epoll_ctl
    }
    std::lock_guard<std::mutex> lock(mu);
    wheel.Remove(conn);
    ::close(conn->fd);  // also removes the fd from the epoll set
    conns.erase(conn->id);
    if (conns.empty()) drained.notify_all();
  }

  Connection* Find(uint64_t id) {
    auto it = conns.find(id);
    return it == conns.end() ? nullptr : it->second.get();
  }

  /// Runs on the thread that took the listener's readiness, which owns
  /// the one-shot listener until it re-arms it.
  void Accept() {
    while (true) {
      int fd = ::accept4(server->listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM) {
          // Out of fds/kernel memory: leave the listener disarmed for a
          // while instead of spinning on it. This thread's next wait
          // times out at the pause's end and re-arms it (Housekeep).
          OOCQ_METRIC_ADD("server/accept_backoff", 1);
          listener_paused_until_ms.store(NowMs() + 100,
                                         std::memory_order_release);
          return;
        }
        return;  // listener shut down by Stop(): stays disarmed
      }
      // Chaos hook (after accept returns, before the connection is
      // served): `delay` stalls acceptance, `error` drops the connection
      // on the floor — a retrying client reconnects.
      if (!Failpoints::Hit("tcp/accept")) {
        ::close(fd);
        continue;
      }
      if (server->options_.so_sndbuf_bytes > 0) {
        int sndbuf = static_cast<int>(server->options_.so_sndbuf_bytes);
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
      }
      // Request/reply ping-pong with tiny frames: Nagle + delayed ACK
      // would add up to 40ms per exchange at the tail.
      int nodelay = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
      Connection* conn = nullptr;
      {
        std::lock_guard<std::mutex> lock(mu);
        // Checked under the lock Stop() sweeps the table with: a
        // connection is either shut down by that sweep or never added.
        if (stopping()) {
          ::close(fd);
          continue;
        }
        if (conns.size() >= options().max_connections) {
          OOCQ_METRIC_ADD("server/overflow_refused", 1);
          ::close(fd);
          continue;
        }
        auto owned = std::make_unique<Connection>();
        conn = owned.get();
        conn->fd = fd;
        conn->id = next_conn_id++;
        conns.emplace(conn->id, std::move(owned));
        if (wheel.enabled()) {
          conn->last_active_ms.store(NowMs(), std::memory_order_relaxed);
          wheel.Schedule(conn, NowTick());
        }
      }
      // Counted before the connection is armed: once it is, another
      // server thread may serve and close it before this one goes on.
      server->accepted_.fetch_add(1, std::memory_order_relaxed);
      OOCQ_METRIC_ADD("server/connections", 1);
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLONESHOT;
      ev.data.ptr = conn;
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        Close(conn);
        continue;
      }
    }
    if (!stopping()) ArmListener();
  }

  void Append(Connection* conn, const std::string& text) {
    // Compact lazily: drop already-sent bytes once they dominate.
    if (conn->out_off > 0 && conn->out_off >= conn->outbox.size() / 2) {
      conn->outbox.erase(0, conn->out_off);
      conn->out_off = 0;
    }
    conn->outbox += text;
    // Write-buffer watermark: the histogram's max is the high-water mark
    // a slow reader drove this connection's outbox to.
    OOCQ_METRIC_RECORD("server/outbox_bytes", conn->pending_output());
  }

  /// Drains readable bytes, at most 8 × 16 KiB per turn so one
  /// connection cannot hold its thread on reads alone. Returns false if
  /// the connection was closed.
  bool Read(Connection* conn) {
    char chunk[16384];
    // First leg of the request's trace path: bytes leaving the kernel.
    // Linked to the later Dispatch/Request spans through the shared
    // `conn` annotation (and `id` once parsed).
    OOCQ_TRACE_SPAN(span, "SocketRead");
    span.Arg("conn", conn->id);
    uint64_t total = 0;
    for (int round = 0; round < 8; ++round) {
      // Chaos hook: `error` fails the read — the connection is treated
      // as dropped, which a retrying client must survive.
      if (!Failpoints::Hit("tcp/read")) {
        Close(conn);
        return false;
      }
      ssize_t got = ::recv(conn->fd, chunk, sizeof(chunk), 0);
      if (got > 0) {
        conn->framing.Feed(chunk, static_cast<size_t>(got));
        total += static_cast<uint64_t>(got);
        if (static_cast<size_t>(got) < sizeof(chunk)) break;
        continue;
      }
      if (got == 0) {
        conn->read_off = true;  // half-close: finish what was received
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      Close(conn);
      return false;
    }
    span.Arg("bytes", total);
    return true;
  }

  /// Runs every complete frame in the read buffer, in order, each reply
  /// appended to the outbox before the next frame starts. Returns false
  /// when the connection was closed (framing violation, truncated frame
  /// at EOF, injected write failure).
  bool RunFrames(Connection* conn) {
    while (!conn->quit) {  // after QUIT, pipelined frames go unanswered
      CommandLine command;
      std::vector<std::string> payload;
      switch (conn->framing.Next(&command, &payload)) {
        case ConnectionHandler::FrameResult::kViolation:
          OOCQ_METRIC_ADD("server/framing_violations", 1);
          Close(conn);
          return false;
        case ConnectionHandler::FrameResult::kNeedMore:
          if (conn->read_off && conn->framing.mid_frame()) {
            // EOF mid-payload: the frame can never complete; no reply.
            Close(conn);
            return false;
          }
          return true;
        case ConnectionHandler::FrameResult::kRequest:
          break;
      }
      if (!RunFrame(conn, command, payload, NowUs())) return false;
    }
    return true;
  }

  bool RunFrame(Connection* conn, const CommandLine& command,
                const std::vector<std::string>& payload, uint64_t parsed_us) {
    // The bounded output buffer — the backpressure contract: while the
    // peer is not draining its reply bytes, requests are shed outright.
    if (conn->pending_output() > options().max_output_buffer_bytes) {
      if (!conn->want_write && !FlushBytes(conn)) return false;
      if (conn->pending_output() > options().max_output_buffer_bytes) {
        OOCQ_METRIC_ADD("server/backpressure_shed", 1);
        Append(conn, ShedReply(command,
                               "slow reader: reply buffer over budget, "
                               "request shed")
                         .text);
        return true;
      }
    }
    ProtocolReply reply;
    {
      // The hand-off leg of the request's trace path: this server thread
      // starts one frame, parsed queue_us ago in the same turn.
      OOCQ_TRACE_SPAN(span, "Dispatch");
      if (span.recording()) {
        span.Arg("conn", conn->id).Arg("queue_us", NowUs() - parsed_us);
        if (!command.request_id.empty()) span.Arg("id", command.request_id);
      }
      // Chaos hook: `delay` stalls this server thread as it starts the
      // request, the way a wedged worker would.
      Failpoints::Hit("pool/dispatch");
      reply = ProtocolHandler(server->service_).Handle(command, payload);
    }
    // Chaos hook: an injected `tcp/write` failure drops the reply and the
    // connection, exactly like a failed send().
    if (!Failpoints::Hit("tcp/write")) {
      Close(conn);
      return false;
    }
    Append(conn, reply.text);
    conn->quit = reply.close;
    return true;
  }

  /// Sends buffered reply bytes. Returns false if the connection was
  /// closed.
  bool Flush(Connection* conn) {
    const size_t backlog = conn->pending_output();
    if (backlog > 0 && TracingActive()) {
      // Last leg of the request's trace path: reply bytes entering the
      // kernel.
      OOCQ_TRACE_SPAN(span, "ReplyWrite");
      span.Arg("conn", conn->id).Arg("bytes", backlog);
      return FlushBytes(conn);
    }
    return FlushBytes(conn);
  }

  /// Sends until the outbox is empty or the socket is full (then
  /// `want_write` asks the re-arm for EPOLLOUT). Returns false if the
  /// connection was closed.
  bool FlushBytes(Connection* conn) {
    while (conn->pending_output() > 0) {
      ssize_t sent =
          ::send(conn->fd, conn->outbox.data() + conn->out_off,
                 conn->outbox.size() - conn->out_off, MSG_NOSIGNAL);
      if (sent > 0) {
        conn->out_off += static_cast<size_t>(sent);
        continue;
      }
      if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!conn->want_write) {
          conn->want_write = true;
          // The peer's receive window is full; the reply waits in the
          // outbox until EPOLLOUT. Counted once per stall, not per retry.
          OOCQ_METRIC_ADD("server/outbox_stalls", 1);
        }
        // A reader so slow that even shed replies pile up unread gets
        // dropped — the bound must bound.
        if (conn->pending_output() >
            4 * options().max_output_buffer_bytes) {
          OOCQ_METRIC_ADD("server/slow_reader_dropped", 1);
          Close(conn);
          return false;
        }
        return true;
      }
      if (sent < 0 && errno == EINTR) continue;
      Close(conn);
      return false;
    }
    conn->outbox.clear();
    conn->out_off = 0;
    conn->want_write = false;
    return true;
  }

  /// One owner's turn on a connection epoll returned with `events`: read,
  /// run the complete frames, write the replies, then close or re-arm.
  void Turn(Connection* conn, uint32_t events) {
    Acquire(conn);
    if (events & (EPOLLERR | EPOLLHUP)) {
      // Peer reset, or the idle sweep shut the connection down.
      Close(conn);
      return;
    }
    // After Stop(), requests already received finish; nothing more is
    // read.
    if (stopping()) conn->read_off = true;
    if ((events & EPOLLIN) && !conn->read_off && !Read(conn)) return;
    if (!RunFrames(conn) || !Flush(conn)) return;
    if (stopping()) conn->read_off = true;
    if ((conn->quit || conn->read_off) && conn->pending_output() == 0) {
      Close(conn);
      return;
    }
    if (conn->quit) conn->read_off = true;  // only the flush is left
    Rearm(conn);
  }

  /// Advances the timer wheel to `now_tick` (caller holds `mu`). A
  /// connection idle past the timeout is shut down for its owner to
  /// close; busy or recently active ones are rescheduled instead.
  void ExpireIdle(uint64_t now_tick) {
    const uint64_t now_ms = NowMs();
    uint64_t steps = now_tick - wheel.last_tick;
    steps = std::min<uint64_t>(steps, wheel.buckets.size());
    for (uint64_t i = 1; i <= steps; ++i) {
      uint64_t tick = wheel.last_tick + i;
      std::list<uint64_t> due;
      due.swap(wheel.buckets[tick % wheel.buckets.size()]);
      for (uint64_t id : due) {
        Connection* conn = Find(id);
        if (conn == nullptr) continue;
        conn->wheel_bucket = Connection::kNotScheduled;
        if (conn->busy.load(std::memory_order_relaxed) ||
            now_ms - conn->last_active_ms.load(std::memory_order_relaxed) <
                options().idle_timeout_ms) {
          wheel.Schedule(conn, now_tick);  // mid-request, or not yet due
          continue;
        }
        OOCQ_METRIC_ADD("server/idle_closed", 1);
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
    wheel.last_tick = now_tick;
    swept_tick.store(now_tick, std::memory_order_relaxed);
  }

  /// Timed work any thread does after a wakeup: re-arm the listener once
  /// an EMFILE pause is over, and sweep the idle wheel once per tick.
  void Housekeep() {
    uint64_t paused_until =
        listener_paused_until_ms.load(std::memory_order_acquire);
    if (paused_until != 0 && NowMs() >= paused_until &&
        listener_paused_until_ms.compare_exchange_strong(paused_until, 0) &&
        !stopping()) {
      ArmListener();
    }
    if (!wheel.enabled()) return;
    const uint64_t now_tick = NowTick();
    if (now_tick == swept_tick.load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lock(mu);
    if (now_tick > wheel.last_tick) ExpireIdle(now_tick);
  }

  /// A thread's epoll_wait timeout: the end of a listener pause, and for
  /// the timekeeper the next wheel tick; else none.
  int EpollTimeoutMs(bool timekeeper) const {
    uint64_t timeout = static_cast<uint64_t>(-1);
    if (timekeeper && wheel.enabled()) timeout = wheel.tick_ms;
    uint64_t paused_until =
        listener_paused_until_ms.load(std::memory_order_acquire);
    if (paused_until != 0) {
      uint64_t now = NowMs();
      timeout = std::min(timeout, paused_until > now ? paused_until - now : 1);
    }
    if (timeout == static_cast<uint64_t>(-1)) return -1;
    return static_cast<int>(std::min<uint64_t>(timeout, 1000));
  }
};

EventServer::EventServer(OocqService* service, EventServerOptions options)
    : service_(service), options_(options) {}

EventServer::~EventServer() { Stop(); }

Status EventServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::Internal("server already started");
  }
  StatusOr<int> listener = OpenListener(options_, &port_);
  if (!listener.ok()) return listener.status();
  listen_fd_ = *listener;

  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  const int epoll_fd = wake_fd_ < 0 ? -1 : ::epoll_create1(0);
  if (epoll_fd < 0) {
    Status failed = Status::Internal(
        std::string(wake_fd_ < 0 ? "eventfd: " : "epoll_create1: ") +
        std::strerror(errno));
    ::close(listen_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    listen_fd_ = wake_fd_ = -1;
    return failed;
  }
  shared_ = std::make_unique<Shared>(this);
  shared_->epoll_fd = epoll_fd;
  // Level-triggered and never read: once Stop() writes it, every
  // epoll_wait on the set returns it.
  epoll_event wake_ev{};
  wake_ev.events = EPOLLIN;
  wake_ev.data.u64 = kWakeTag;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd_, &wake_ev);
  epoll_event listen_ev{};
  listen_ev.events = EPOLLIN | EPOLLONESHOT;
  listen_ev.data.u64 = kListenerTag;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd_, &listen_ev);
  shared_->start_ms = NowMs();
  if (options_.idle_timeout_ms > 0) {
    shared_->wheel.Init(options_.idle_timeout_ms);
  }

  uint32_t threads = options_.dispatch_threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (uint32_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this, i] { Run(/*timekeeper=*/i == 0); });
  }
  return Status::Ok();
}

void EventServer::Run(bool timekeeper) {
  epoll_event event;
  while (true) {
    // One event per wait: a ready connection goes to an idle thread
    // rather than queueing behind another connection's request here.
    int n = ::epoll_wait(shared_->epoll_fd, &event, 1,
                         shared_->EpollTimeoutMs(timekeeper));
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll itself failed; nothing sane left to do
    }
    OOCQ_METRIC_ADD("server/loop_wakeups", 1);
    shared_->Housekeep();
    if (n == 0) continue;
    if (event.data.u64 == kWakeTag) {
      // Stop(): pass the wakeup on, so every thread exits.
      uint64_t one = 1;
      ssize_t written = ::write(wake_fd_, &one, sizeof(one));
      (void)written;
      return;
    }
    if (event.data.u64 == kListenerTag) {
      shared_->Accept();
      continue;
    }
    shared_->Turn(static_cast<Shared::Connection*>(event.data.ptr),
                  event.events);
  }
}

void EventServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  // shutdown(2), not close: a server thread may be inside accept4() on
  // the listener. Its readiness wakes a thread, whose accept fails and
  // leaves the listener disarmed.
  ::shutdown(listen_fd_, SHUT_RDWR);
  {
    // Every connection's owner sees EOF, finishes the requests already
    // received, flushes their replies and closes; the last close
    // notifies. The server threads sleep in epoll_wait meanwhile.
    std::unique_lock<std::mutex> lock(shared_->mu);
    for (auto& [id, conn] : shared_->conns) ::shutdown(conn->fd, SHUT_RD);
    shared_->drained.wait(lock, [this] { return shared_->conns.empty(); });
  }
  uint64_t one = 1;
  ssize_t written = ::write(wake_fd_, &one, sizeof(one));
  (void)written;
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
  ::close(shared_->epoll_fd);
  shared_.reset();
  ::close(listen_fd_);
  ::close(wake_fd_);
  listen_fd_ = wake_fd_ = -1;
  service_->Drain();
}

}  // namespace oocq::server
