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
#include <cstring>
#include <deque>
#include <list>
#include <map>
#include <utility>

#include "server/protocol.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace oocq::server {

namespace {

/// Sentinel epoll user-data values for the two non-connection fds.
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeTag = 1;
constexpr uint64_t kFirstConnId = 2;

/// Constant-size retryable refusal, used when transport-level bounds
/// (pipeline depth, output buffer) shed a request before it reaches the
/// service. Same wire shape as protocol.cc's ErrReply.
std::string ShedReply(const char* what) {
  return std::string("ERR UNAVAILABLE ") + what + "\n.\n";
}

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

/// All state touched only by the loop thread: the connection table, the
/// idle timer wheel, and the stop-drain bookkeeping. Pool workers talk
/// to the loop exclusively through the completion queue + eventfd.
struct EventServer::Loop {
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    ConnectionHandler framing;
    /// Parsed requests waiting for their turn (replies must go out in
    /// request order, so at most one executes at a time). The enqueue
    /// timestamp feeds the server/dispatch_wait_us histogram and the
    /// Dispatch span's queue_us annotation.
    struct QueuedRequest {
      CommandLine command;
      std::vector<std::string> payload;
      uint64_t enqueued_us = 0;
    };
    std::deque<QueuedRequest> requests;
    std::string outbox;
    size_t out_off = 0;
    bool want_write = false;  // EPOLLOUT currently armed
    bool read_off = false;    // peer EOF or drain: no more reads
    bool in_flight = false;   // a request of this conn runs on the pool
    bool quit = false;        // QUIT answered: close once flushed
    /// Timer wheel membership (kNotScheduled when off the wheel).
    size_t wheel_bucket = kNotScheduled;
    std::list<uint64_t>::iterator wheel_it;
    /// NowMs() of the last traffic; the wheel only hints when to look.
    uint64_t last_active_ms = 0;

    static constexpr size_t kNotScheduled = static_cast<size_t>(-1);

    size_t pending_output() const { return outbox.size() - out_off; }
    bool idle() const {
      return !in_flight && requests.empty() && pending_output() == 0;
    }
  };

  /// Hashed timing wheel for idle-session timeouts: one bucket per tick
  /// across slightly more than one timeout's worth of ticks. Activity
  /// reschedules the connection into the bucket one full timeout ahead.
  /// A bucket the cursor reaches is only a hint — a lagging loop sweeps
  /// several ticks at once, including buckets just scheduled into — so
  /// ExpireIdle checks each connection's last activity before closing.
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

  explicit Loop(EventServer* server) : server(server) {}

  EventServer* server;
  int epoll_fd = -1;
  std::map<uint64_t, std::unique_ptr<Connection>> conns;
  uint64_t next_conn_id = kFirstConnId;
  size_t dispatched = 0;  // requests on the pool, completions not seen
  TimerWheel wheel;
  uint64_t start_ms = 0;
  /// EMFILE backoff: the listener is removed from the interest set until
  /// this deadline, so a level-triggered "still readable" listener does
  /// not spin the loop while fds are exhausted.
  uint64_t listener_paused_until_ms = 0;
  bool listener_armed = false;
  bool stop_begun = false;

  uint64_t NowTick() const {
    return wheel.enabled() ? (NowMs() - start_ms) / wheel.tick_ms : 0;
  }

  void Touch(Connection* conn) {
    if (!wheel.enabled()) return;
    conn->last_active_ms = NowMs();
    wheel.Schedule(conn, NowTick());
  }

  void ArmListener(bool arm) {
    if (arm == listener_armed) return;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerTag;
    ::epoll_ctl(epoll_fd, arm ? EPOLL_CTL_ADD : EPOLL_CTL_DEL,
                server->listen_fd_, &ev);
    listener_armed = arm;
  }

  void UpdateInterest(Connection* conn) {
    epoll_event ev{};
    ev.events = (conn->read_off ? 0u : EPOLLIN) |
                (conn->want_write ? EPOLLOUT : 0u);
    ev.data.u64 = conn->id;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
  }

  void Close(Connection* conn) {
    wheel.Remove(conn);
    ::close(conn->fd);  // also removes the fd from the epoll set
    conns.erase(conn->id);
  }

  Connection* Find(uint64_t id) {
    auto it = conns.find(id);
    return it == conns.end() ? nullptr : it->second.get();
  }

  void Accept() {
    while (true) {
      int fd = ::accept4(server->listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM) {
          // Out of fds/kernel memory: pause accepting briefly instead of
          // spinning on a listener that stays level-triggered readable.
          OOCQ_METRIC_ADD("server/accept_backoff", 1);
          listener_paused_until_ms = NowMs() + 100;
          ArmListener(false);
          return;
        }
        return;  // listener closed by Stop()
      }
      // Chaos hook (after accept returns, before the connection is
      // served): `delay` stalls acceptance, `error` drops the connection
      // on the floor — a retrying client reconnects.
      if (!Failpoints::Hit("tcp/accept")) {
        ::close(fd);
        continue;
      }
      if (conns.size() >= server->options_.max_connections) {
        OOCQ_METRIC_ADD("server/overflow_refused", 1);
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
      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      conn->id = next_conn_id++;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = conn->id;
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        continue;
      }
      server->accepted_.fetch_add(1, std::memory_order_relaxed);
      OOCQ_METRIC_ADD("server/connections", 1);
      Connection* raw = conn.get();
      conns.emplace(raw->id, std::move(conn));
      Touch(raw);
    }
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

  /// Starts the next queued request if the connection is free, shedding
  /// queued requests outright while the peer is not draining its reply
  /// bytes (bounded output buffer — the backpressure contract).
  void Pump(Connection* conn) {
    while (!conn->in_flight && !conn->quit && !conn->requests.empty()) {
      if (conn->pending_output() >
          server->options_.max_output_buffer_bytes) {
        OOCQ_METRIC_ADD("server/backpressure_shed", 1);
        Append(conn, ShedReply(
                         "slow reader: reply buffer over budget, request "
                         "shed"));
        conn->requests.pop_front();
        continue;
      }
      Connection::QueuedRequest next = std::move(conn->requests.front());
      conn->requests.pop_front();
      conn->in_flight = true;
      ++dispatched;
      // Depth gauge: requests handed to the pool whose completions the
      // loop has not yet seen — the dispatch backlog a stalled pool grows.
      OOCQ_METRIC_RECORD("server/dispatch_queue_depth", dispatched);
      uint64_t id = conn->id;
      uint64_t enqueued_us = next.enqueued_us;
      OocqService* service = server->service_;
      EventServer* owner = server;
      server->pool_->Submit([owner, service, id, enqueued_us,
                             command = std::move(next.command),
                             payload = std::move(next.payload)] {
        const uint64_t queue_us = NowUs() - enqueued_us;
        OOCQ_METRIC_RECORD("server/dispatch_wait_us", queue_us);
        // The queue-wait leg of the request's trace path: parsed on the
        // loop thread at enqueued_us, picked up by this pool worker now.
        OOCQ_TRACE_SPAN(span, "Dispatch");
        span.Arg("conn", id).Arg("queue_us", queue_us);
        if (!command.request_id.empty()) span.Arg("id", command.request_id);
        Completion completion;
        completion.conn_id = id;
        ProtocolReply reply = ProtocolHandler(service).Handle(command, payload);
        // Chaos hook: an injected `tcp/write` failure drops the reply
        // and the connection, exactly like a failed send().
        if (!Failpoints::Hit("tcp/write")) {
          completion.drop = true;
        } else {
          completion.text = std::move(reply.text);
          completion.close = reply.close;
        }
        owner->PostCompletion(std::move(completion));
      });
      return;
    }
  }

  /// Parses every complete frame out of the connection's read buffer.
  /// Returns false when the connection was closed (framing violation or
  /// truncated frame at EOF).
  bool ParseFrames(Connection* conn) {
    while (true) {
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
      if (conn->requests.size() >= server->options_.max_pipeline_depth) {
        OOCQ_METRIC_ADD("server/pipeline_shed", 1);
        Append(conn, ShedReply("pipeline depth exceeded, request shed"));
        continue;
      }
      conn->requests.push_back(
          {std::move(command), std::move(payload), NowUs()});
    }
  }

  /// Drains readable bytes (bounded per readiness for loop fairness),
  /// parses frames, pumps. Returns false if the connection was closed.
  bool OnReadable(Connection* conn) {
    if (conn->read_off) return true;
    Touch(conn);
    char chunk[16384];
    {
      // First leg of the request's trace path: bytes leaving the kernel
      // on the loop thread. Linked to the later Dispatch/Request spans
      // through the shared `conn` annotation (and `id` once parsed).
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
          UpdateInterest(conn);
          break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
        Close(conn);
        return false;
      }
      span.Arg("bytes", total);
    }
    if (!ParseFrames(conn)) return false;
    Pump(conn);
    return Flush(conn);
  }

  /// Sends buffered reply bytes; arms EPOLLOUT when the socket fills.
  /// Returns false if the connection was closed.
  bool Flush(Connection* conn) {
    const size_t backlog = conn->pending_output();
    if (backlog > 0 && TracingActive()) {
      // Last leg of the request's trace path: reply bytes entering the
      // kernel on the loop thread.
      OOCQ_TRACE_SPAN(span, "ReplyWrite");
      span.Arg("conn", conn->id).Arg("bytes", backlog);
      return FlushBytes(conn);
    }
    return FlushBytes(conn);
  }

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
          UpdateInterest(conn);
          // The peer's receive window is full; the reply waits in the
          // outbox until EPOLLOUT. Counted once per stall, not per retry.
          OOCQ_METRIC_ADD("server/outbox_stalls", 1);
        }
        // A reader so slow that even shed replies pile up unread gets
        // dropped — the bound must bound.
        if (conn->pending_output() >
            4 * server->options_.max_output_buffer_bytes) {
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
    if (conn->want_write) {
      conn->want_write = false;
      UpdateInterest(conn);
    }
    if (conn->quit || (conn->read_off && conn->idle())) {
      Close(conn);
      return false;
    }
    return true;
  }

  void OnWritable(Connection* conn) {
    Touch(conn);
    (void)Flush(conn);
  }

  /// Applies finished requests: append the rendered reply, mark the
  /// connection free, start its next queued request, flush.
  void DrainCompletions() {
    uint64_t counter;
    ssize_t drained = ::read(server->wake_fd_, &counter, sizeof(counter));
    (void)drained;  // EAGAIN when woken by Stop() alone is fine
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(server->completions_mu_);
      batch.swap(server->completions_);
    }
    for (Completion& completion : batch) {
      --dispatched;
      Connection* conn = Find(completion.conn_id);
      if (conn == nullptr) continue;  // connection died while executing
      conn->in_flight = false;
      if (completion.drop) {
        Close(conn);
        continue;
      }
      Append(conn, completion.text);
      if (completion.close) {
        // QUIT: anything pipelined after it goes unanswered.
        conn->quit = true;
        conn->requests.clear();
      }
      Pump(conn);
      (void)Flush(conn);
    }
  }

  /// Advances the timer wheel to `now`, closing connections idle past
  /// the timeout (busy or recently active ones are rescheduled instead).
  void ExpireIdle() {
    if (!wheel.enabled()) return;
    const uint64_t now_ms = NowMs();
    uint64_t now_tick = NowTick();
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
        if (!conn->idle() ||
            now_ms - conn->last_active_ms <
                server->options_.idle_timeout_ms) {
          wheel.Schedule(conn, now_tick);  // mid-request, or not yet due
          continue;
        }
        OOCQ_METRIC_ADD("server/idle_closed", 1);
        Close(conn);
      }
    }
    wheel.last_tick = now_tick;
  }

  /// First reaction to Stop(): close the listener and half-close every
  /// connection's read side, so requests already received still get
  /// their responses (the graceful-drain contract).
  void BeginStop() {
    if (stop_begun) return;
    stop_begun = true;
    ArmListener(false);
    for (auto& [id, conn] : conns) {
      ::shutdown(conn->fd, SHUT_RD);
      conn->read_off = true;
    }
    // Connections mid-frame can never complete; sweep them (and already
    // idle ones) now. Close() mutates the map, so collect ids first.
    std::vector<uint64_t> sweep;
    for (auto& [id, conn] : conns) {
      if (conn->idle() || conn->framing.mid_frame()) sweep.push_back(id);
    }
    for (uint64_t id : sweep) {
      if (Connection* conn = Find(id)) Close(conn);
    }
  }

  bool DrainComplete() const {
    if (dispatched != 0) return false;
    for (const auto& [id, conn] : conns) {
      if (!conn->idle()) return false;
    }
    return true;
  }

  int EpollTimeoutMs() const {
    if (stop_begun) return 50;
    uint64_t timeout = static_cast<uint64_t>(-1);
    if (wheel.enabled()) timeout = wheel.tick_ms;
    if (listener_paused_until_ms != 0) {
      uint64_t now = NowMs();
      uint64_t resume =
          listener_paused_until_ms > now ? listener_paused_until_ms - now : 1;
      timeout = std::min(timeout, resume);
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
  if (wake_fd_ < 0) {
    Status failed =
        Status::Internal(std::string("eventfd: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return failed;
  }

  loop_ = std::make_unique<Loop>(this);
  loop_->epoll_fd = ::epoll_create1(0);
  if (loop_->epoll_fd < 0) {
    Status failed =
        Status::Internal(std::string("epoll_create1: ") + std::strerror(errno));
    ::close(listen_fd_);
    ::close(wake_fd_);
    listen_fd_ = wake_fd_ = -1;
    loop_.reset();
    return failed;
  }
  epoll_event wake_ev{};
  wake_ev.events = EPOLLIN;
  wake_ev.data.u64 = kWakeTag;
  ::epoll_ctl(loop_->epoll_fd, EPOLL_CTL_ADD, wake_fd_, &wake_ev);
  loop_->ArmListener(true);
  loop_->start_ms = NowMs();
  if (options_.idle_timeout_ms > 0) {
    loop_->wheel.Init(options_.idle_timeout_ms);
  }

  uint32_t workers = options_.dispatch_threads;
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  pool_ = std::make_unique<ThreadPool>(workers);

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { Run(); });
  return Status::Ok();
}

void EventServer::Run() {
  epoll_event events[256];
  while (true) {
    if (stopping_.load(std::memory_order_acquire)) {
      loop_->BeginStop();
      if (loop_->DrainComplete()) break;
    }
    if (loop_->listener_paused_until_ms != 0 &&
        NowMs() >= loop_->listener_paused_until_ms && !loop_->stop_begun) {
      loop_->listener_paused_until_ms = 0;
      loop_->ArmListener(true);
    }
    int n = ::epoll_wait(loop_->epoll_fd, events,
                         static_cast<int>(std::size(events)),
                         loop_->EpollTimeoutMs());
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed; nothing sane left to do
    }
    OOCQ_METRIC_ADD("server/loop_wakeups", 1);
    // Loop lag: wall time the loop thread spends handling one readiness
    // batch — time during which no other connection's bytes move. A p99
    // here in the milliseconds means some handler blocks the loop.
    const uint64_t iteration_start_us = NowUs();
    for (int i = 0; i < n; ++i) {
      uint64_t tag = events[i].data.u64;
      if (tag == kListenerTag) {
        if (!loop_->stop_begun) loop_->Accept();
        continue;
      }
      if (tag == kWakeTag) {
        loop_->DrainCompletions();
        continue;
      }
      Loop::Connection* conn = loop_->Find(tag);
      if (conn == nullptr) continue;  // closed earlier in this batch
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        // Peer reset. Replies for its in-flight request are discarded at
        // completion time (the connection will be gone).
        loop_->Close(conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) && !loop_->OnReadable(conn)) continue;
      if (events[i].events & EPOLLOUT) loop_->OnWritable(conn);
    }
    if (n > 0) {
      OOCQ_METRIC_RECORD("server/loop_iteration_us", NowUs() - iteration_start_us);
    }
    loop_->ExpireIdle();
  }
  // Loop exit: drain finished (or epoll died). Close whatever remains.
  std::vector<uint64_t> remaining;
  for (auto& [id, conn] : loop_->conns) remaining.push_back(id);
  for (uint64_t id : remaining) {
    if (Loop::Connection* conn = loop_->Find(id)) loop_->Close(conn);
  }
}

void EventServer::PostCompletion(Completion completion) {
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.push_back(std::move(completion));
  }
  WakeLoop();
}

void EventServer::WakeLoop() {
  uint64_t one = 1;
  ssize_t written = ::write(wake_fd_, &one, sizeof(one));
  (void)written;  // eventfd counter saturating still wakes the loop
}

void EventServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  WakeLoop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // The loop only exits once every dispatched request completed, so the
  // pool is idle; destroying it joins the workers.
  pool_.reset();
  if (loop_ != nullptr && loop_->epoll_fd >= 0) ::close(loop_->epoll_fd);
  loop_.reset();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  listen_fd_ = wake_fd_ = -1;
  service_->Drain();
}

}  // namespace oocq::server
