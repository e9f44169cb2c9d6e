#ifndef OOCQ_SERVER_SERVICE_H_
#define OOCQ_SERVER_SERVICE_H_

/// The embeddable, transport-agnostic query service: schemas, states and
/// named queries are registered once into a *session* and reused across
/// requests, so the per-request cost is the decision procedure alone —
/// the deployment shape the paper's reusable per-schema containment
/// (Thm 3.1 / Cor 3.4) and minimization (Thm 4.2–4.5) services motivate.
///
///   OocqService service;
///   std::string sid = *service.CreateSession(schema_text);
///   Request request;
///   request.kind = RequestKind::kContained;
///   request.session_id = sid;
///   request.query = "{ x | x in Auto }";
///   request.query2 = "{ x | x in Vehicle }";
///   request.deadline_ms = 50;
///   Response response = service.Execute(request);   // blocking
///
/// Concurrency model: Execute() admits the request (at most
/// max_in_flight + max_queue_depth at once — beyond that it sheds
/// immediately with retryable kUnavailable), waits for one of
/// `max_in_flight` slots, and runs the request on the calling thread.
/// The EventServer calls Execute() from its server threads, so no thread
/// hand-off sits between the socket and the engine; the slots bound the
/// engine work actually running. ExecuteBatch() fans a batch out onto the
/// service's support/thread_pool, each item taking a slot, and returns
/// responses in request order.
///
/// Each request gets a CancellationToken from its deadline, threaded
/// through the engine (ContainmentOptions::cancel), so expiry mid-scan
/// returns kDeadlineExceeded — never a hung request. All requests of a
/// session share one ContainmentCache; retryable errors are never
/// memoized (core/containment_cache.h).
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <semaphore>
#include <shared_mutex>
#include <string>
#include <vector>

#include "compile/program_cache.h"
#include "core/containment_cache.h"
#include "core/engine_options.h"
#include "core/prepared.h"
#include "persist/catalog.h"
#include "query/query.h"
#include "schema/schema.h"
#include "state/state.h"
#include "support/cancellation.h"
#include "support/metrics.h"
#include "support/resource_budget.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace oocq::server {

struct ServiceOptions {
  /// Engine configuration applied to every request (parallel fan-out,
  /// containment limits, cache sizing). The default (serial engine) is
  /// right for a loaded server: concurrency comes from running
  /// `max_in_flight` independent requests, not from splitting one.
  EngineOptions engine;
  /// Requests executing concurrently: the slots Execute() and the items
  /// of ExecuteBatch() take before running (also the batch pool's size).
  uint32_t max_in_flight = 4;
  /// Admitted requests tolerated beyond max_in_flight while they wait
  /// for a slot; one more is shed with kUnavailable instead of waiting.
  uint32_t max_queue_depth = 64;
  /// Deadline applied when a request carries none (0 = unbounded).
  uint64_t default_deadline_ms = 0;
  /// Collect service counters/histograms into metrics() (server/requests,
  /// server/shed, server/latency_us, …). The registry is the one the
  /// `STATS` protocol command exposes.
  bool metrics = true;
  /// Service-wide resource ceilings (docs/robustness.md). Work limits
  /// (disjuncts, subset work units) cap the *aggregate* of all in-flight
  /// requests; max_resident_bytes caps the catalog text (schemas, named
  /// queries, states) the service keeps registered. Per-request ceilings
  /// go in engine.limits; every request budget chains under this one.
  /// Overruns surface as retryable kResourceExhausted.
  ResourceLimits budget;
  /// A request whose admission-to-completion latency reaches this many
  /// microseconds is logged at Warn with its captured span tree
  /// (support/trace.h ThreadSpanCapture), so one slow verdict can be
  /// attributed to engine work vs. queueing vs. persistence without
  /// tracing the whole server. 0 disables the slow-request log.
  uint64_t slow_request_us = 0;
  /// Failpoint spec armed at construction ("wal/fsync=error@3,...", see
  /// support/failpoint.h). Empty arms nothing; a malformed spec is
  /// reported once to the metrics registry and ignored.
  std::string failpoints;
  /// Durable catalog (docs/persistence.md). When set, the service replays
  /// the catalog's recovered records on construction — re-registering
  /// sessions, named queries and states, and warm-starting each session's
  /// ContainmentCache — then logs every session mutation through it and
  /// registers the catalog's snapshot dump. On destruction the service
  /// takes one final snapshot so the warm cache survives clean restarts.
  std::shared_ptr<persist::DurableCatalog> catalog;
  /// Replication follower mode (docs/replication.md): client-facing
  /// mutations (CreateSession / DropSession / DefineQuery / LoadState)
  /// answer kFailedPrecondition "readonly ..." while the decision verbs
  /// keep serving — verdicts are deterministic functions of replayed
  /// state, so a follower's answers match the primary's. Records shipped
  /// from the primary enter through ApplyReplicated(), which bypasses
  /// the gate; Promote() clears it.
  bool read_only = false;
};

enum class RequestKind {
  kMinimize,        // §4 exact (positive) or §5 reduced union (general)
  kContained,       // Q1 ⊆ Q2 through the Thm 4.1 expansion pipeline
  kEquivalent,      // both directions, shared per-session cache
  kUnionContained,  // Thm 4.1 over explicit disjunct lists
  kSatisfiable,     // Thm 2.2 on a terminal query
  kEvaluate,        // answers on the session's registered state
  kExplain,         // narrated containment decision
};

const char* RequestKindName(RequestKind kind);

/// Replication telemetry, filled by whichever side of the stream this
/// node is on: a follower's tail loop registers a probe
/// (SetReplicationProbe) reporting lag; a primary reports ship-side
/// counters once a subscriber has connected. `present` gates the `repl`
/// line in HEALTH and the repl gauges in STATS, so a non-replicated
/// server's output is unchanged.
struct ReplicationHealth {
  bool present = false;
  std::string role;             // "primary" | "follower"
  bool connected = false;       // follower: stream to the primary is up
  uint64_t lag_records = 0;     // primary durable tip seq − applied seq
  uint64_t shipped_bytes = 0;   // primary: frame bytes shipped
  uint64_t applied_records = 0; // follower: records applied this epoch
  uint64_t epoch = 0;           // WAL compaction epoch being tailed
  uint64_t term = 0;            // replication term (write authority)
};

/// One liveness/progress snapshot, collected once and rendered by both
/// the HEALTH verb (PR 5 wire format, unchanged) and the STATS
/// exposition — a single collection path so the two can never disagree.
struct ServiceHealth {
  uint32_t pending = 0;
  uint64_t completed = 0;
  bool draining = false;
  uint64_t sessions = 0;
  bool has_budget = false;
  uint64_t resident_bytes = 0;
  uint64_t max_resident_bytes = 0;
  uint64_t work_units = 0;
  uint64_t max_work_units = 0;
  uint64_t disjuncts = 0;
  uint64_t max_disjuncts = 0;
  uint64_t exhausted = 0;
  ReplicationHealth repl;
};

/// One typed request. Query fields hold either query text or `@name`
/// references to queries registered with DefineQuery().
struct Request {
  RequestKind kind = RequestKind::kContained;
  std::string session_id;
  std::string query;                 // primary query (all kinds)
  std::string query2;                // second query (binary kinds)
  std::vector<std::string> union_m;  // kUnionContained: disjuncts of M
  std::vector<std::string> union_n;  // kUnionContained: disjuncts of N
  /// Relative deadline; 0 inherits ServiceOptions::default_deadline_ms.
  /// Expiry — in the admission queue or mid-scan — yields
  /// kDeadlineExceeded (retryable, IsRetryable()).
  uint64_t deadline_ms = 0;
  /// Caller-chosen id annotated onto the request's trace span, so a
  /// Chrome trace of the server shows which spans served which request.
  std::string request_id;
};

struct Response {
  Status status;            // retryable codes: shed / expired deadline
  bool verdict = false;     // contained / equivalent / satisfiable
  std::string body;         // rendered result (minimize, eval, explain)
  uint64_t latency_us = 0;  // admission to completion, queue wait included
};

class OocqService {
 public:
  explicit OocqService(ServiceOptions options = {});
  /// Drains: refuses new work and joins in-flight requests.
  ~OocqService();

  OocqService(const OocqService&) = delete;
  OocqService& operator=(const OocqService&) = delete;

  // ---- Session registry -------------------------------------------------
  /// Parses `schema_text` and registers a fresh session around it (own
  /// named-query map, own ContainmentCache). Returns the session id.
  StatusOr<std::string> CreateSession(const std::string& schema_text);
  Status DropSession(const std::string& session_id);
  /// Parses and registers a named query; requests reference it as @name.
  Status DefineQuery(const std::string& session_id, const std::string& name,
                     const std::string& query_text);
  /// Parses and registers the session's database state (kEvaluate target).
  Status LoadState(const std::string& session_id,
                   const std::string& state_text);
  size_t session_count() const;
  /// The registered session ids, sorted. A replication resync uses this
  /// to drop state the new dump no longer contains.
  std::vector<std::string> SessionIds() const;

  // ---- Replication (docs/replication.md) --------------------------------
  /// True while client-facing mutations are refused with
  /// kFailedPrecondition (ServiceOptions::read_only, or fencing).
  bool read_only() const {
    return read_only_.load(std::memory_order_relaxed);
  }
  /// True when this node was a primary that observed a higher term and
  /// fenced itself: mutations answer "fenced term=N" instead of
  /// "readonly" so routers know to re-resolve, not just redirect.
  bool fenced() const { return fenced_.load(std::memory_order_relaxed); }
  /// The replication term this node is operating under. Mirrors the
  /// durable catalog's TERM file; 1 for a catalog-less service.
  uint64_t term() const { return term_.load(std::memory_order_acquire); }
  /// Applies one record shipped from the primary: bypasses the readonly
  /// gate, replays through the idempotent ApplyRecord path, and logs the
  /// record to this node's own catalog — so replay==acked holds on the
  /// follower too and promotion is just Promote(). A record whose local
  /// append fails stays applied, and the append's error is returned.
  /// Serialized by the caller (the follower's single tail thread).
  /// `term` is the shipping primary's term: lower than ours is rejected
  /// (kFailedPrecondition — a healed stale primary can never pollute
  /// this WAL), higher is adopted durably, 0 means "unstamped" (trusted
  /// local replay).
  Status ApplyReplicated(const persist::Record& record, uint64_t term = 0);
  /// Clears the readonly gate; this node now accepts writes. On an
  /// actual transition the term is bumped to max(term+1, min_term) and
  /// persisted, and the `repl/promote` failpoint fires. Idempotent.
  Status Promote(uint64_t min_term = 0);
  /// Fences this node: a peer (subscriber handshake, REPL DEMOTE, the
  /// router's fencing sweep) proved a primary at `observed_term` exists.
  /// A primary steps down when observed_term > term(), or when
  /// observed_term == term() and `new_primary` names the dueling winner
  /// (the router's deterministic tie-break). Adopts the term durably,
  /// flips read-only + fenced, fires the `repl/fence` failpoint, and
  /// invokes the demotion handler with (term, new_primary) so the host
  /// can rejoin as a follower. kFailedPrecondition for a stale term.
  /// Already-followers adopt the term and return Ok.
  Status Demote(uint64_t observed_term, const std::string& new_primary);
  /// Installs the replication telemetry source CollectHealth() consults
  /// (a follower's tail loop). Null detaches it.
  void SetReplicationProbe(std::function<ReplicationHealth()> probe);
  /// Installs the hook Demote() invokes after fencing (term, new_primary
  /// — new_primary may be empty when the demoter named no successor).
  /// The host uses it to start tailing the new primary. Called on the
  /// demoting thread with no service locks held. Null detaches it.
  void SetDemotionHandler(
      std::function<void(uint64_t, const std::string&)> handler);

  // ---- Request execution ------------------------------------------------
  /// Admission control, then the request on the calling thread once it
  /// holds a slot; see the header comment.
  Response Execute(const Request& request);
  /// Admits and fans the whole batch onto the pool; responses come back
  /// in request order, and verdicts are identical to running the batch
  /// sequentially (each request is independent; the shared cache computes
  /// each decision once regardless of schedule). Requests that don't fit
  /// the admission window are shed individually.
  std::vector<Response> ExecuteBatch(const std::vector<Request>& requests);

  // ---- Lifecycle / introspection ----------------------------------------
  /// Stops admitting (subsequent Execute sheds with kUnavailable) and
  /// blocks until every in-flight request finished. Idempotent.
  void Drain();
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  /// The service-lifetime registry (populated when options.metrics).
  const MetricsRegistry& metrics() const { return registry_; }
  /// Mutable handle for companion components (the replication tail
  /// thread) whose lifetime is bounded by the service: writing here
  /// instead of through the process-wide MetricsScope keeps their
  /// counters valid even when another service owns the global scope.
  MetricsRegistry* metrics_registry() { return &registry_; }
  const ServiceOptions& options() const { return options_; }

  /// One coherent liveness snapshot (see ServiceHealth).
  ServiceHealth CollectHealth() const;
  /// Prometheus-style text exposition of the registry plus the
  /// ServiceHealth gauges — what the STATS verb and `oocq_serve
  /// --stats-file` emit (docs/observability.md#stats).
  std::string StatsText() const;

  /// Requests admitted and not yet finished (waiting for a slot +
  /// running).
  uint32_t pending() const { return pending_.load(std::memory_order_relaxed); }
  /// Requests finished since construction (any status). A watchdog that
  /// sees pending() > 0 while this stops advancing has found request
  /// execution wedged (examples/oocq_serve.cpp).
  uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  /// The service-wide budget (ServiceOptions::budget); null when no
  /// service limit is set. Read-only introspection for HEALTH.
  const ResourceBudget* budget() const {
    return budget_.has_value() ? &*budget_ : nullptr;
  }

 private:
  /// A registered text, kept verbatim so the durable catalog persists
  /// exactly what the client sent (no print-reparse round trip), beside
  /// the form requests read.
  template <typename T>
  struct Registered {
    std::string text;
    T parsed;
  };

  /// A registered query: its verbatim text, and a slot for its parse and
  /// its Prop 2.1 expansion. DEFINE, replay and replication store the
  /// text alone; the first request that reads the name parses it, and the
  /// first decision expands it. A redefinition replaces the whole entry,
  /// slot included, under the session's exclusive lock.
  class NamedQuery {
   public:
    explicit NamedQuery(std::string t) : text(std::move(t)) {}

    const std::string text;

    /// The parsed text, from the slot. A text that does not parse (a
    /// recovered record from a hand-edited file or a removed feature)
    /// returns the parser's error on every call.
    StatusOr<const ConjunctiveQuery*> Parsed(const Schema& schema) const;
    /// The query prepared for one request (core/prepared.h): its
    /// expansion comes from the slot, and its disjuncts carry the
    /// prune's facts; their analyses and keys are derived for this
    /// request. The first caller expands under `options`, whose budget
    /// the expansion charges; a later caller charges options.budget the
    /// raw disjunct count instead, as expanding again would. A failed
    /// expansion is not kept: the next caller expands again.
    StatusOr<PreparedQuery> Prepare(const Schema& schema,
                                    const ExpansionOptions& options) const;

   private:
    StatusOr<const ConjunctiveQuery*> ParsedLocked(const Schema& schema) const;

    mutable std::mutex mu_;
    mutable std::unique_ptr<const ConjunctiveQuery> parsed_;      // by mu_
    mutable std::unique_ptr<const TerminalExpansion> expansion_;  // by mu_
  };

  struct Session {
    explicit Session(Schema s) : schema(std::move(s)) {}
    Schema schema;
    std::string schema_text;
    std::map<std::string, NamedQuery> named;
    std::optional<Registered<State>> state;
    std::unique_ptr<ContainmentCache> cache;
    /// Compiled evaluation programs, keyed by query text — same lifetime
    /// and invalidation epoch as `cache` (both are rebuilt together
    /// whenever the session's decision state is reset).
    std::unique_ptr<compile::ProgramCache> programs;
    /// Catalog bytes this session has charged on the service budget
    /// (released when it is dropped). Guarded by sessions_mu_, so a
    /// charge and the drop's release never interleave.
    uint64_t resident_bytes = 0;
    /// `named` and `state` change under it exclusively (ApplyRecord);
    /// request execution reads under a shared lock.
    mutable std::shared_mutex mu;
  };

  StatusOr<std::shared_ptr<Session>> FindSession(
      const std::string& session_id) const;
  /// The one place sessions, named queries and states are created,
  /// replaced or erased — client mutations and replication (through
  /// Commit) and WAL replay all land here. Idempotent for replay (see
  /// docs/persistence.md): a create of a session that exists and a drop
  /// of one that does not change nothing and return false. A failure
  /// applies nothing.
  StatusOr<bool> ApplyRecord(const persist::Record& record);
  /// Whose mutation a Commit carries.
  enum class Origin { kClient, kReplication };
  /// Applies `record`, then appends it to the catalog's WAL (when there
  /// is one), both under one shared hold of the mutation gate: a record
  /// that cannot apply never reaches the log, and no snapshot cuts
  /// between the two. A client's drop that changes nothing answers
  /// NOT_FOUND, and a client's create whose append fails is rolled back.
  /// A replicated record stays applied either way, as at replay.
  Status Commit(const persist::Record& record, Origin origin);
  void RestoreFromCatalog();
  /// Serializes the whole registry (+ cache verdicts worth warming) for
  /// the catalog's snapshotter. Called with mutations gated off.
  std::vector<persist::Record> DumpCatalog();
  /// Admission check; on success the caller owes one FinishOne().
  Status AdmitOne();
  void FinishOne();
  /// Moves `session`'s charge on the service budget from `from` to `to`
  /// catalog bytes (no-op without a budget); a release never fails. The
  /// caller holds sessions_mu_.
  Status Recharge(Session& session, uint64_t from, uint64_t to);
  /// Recharge for a DEFINE or STATE on a registered session: under
  /// sessions_mu_, so a mutation that lost the race to a drop answers
  /// NOT_FOUND instead of charging bytes nothing will release.
  Status RechargeRegistered(const std::string& session_id, Session& session,
                            uint64_t from, uint64_t to);
  /// The request body, run while holding a slot. `cancel` may be null.
  Response Run(const Request& request, Session& session,
               const CancellationToken* cancel) const;

  /// One request between admission and completion.
  struct Admission {
    uint64_t admitted_us = 0;
    std::shared_ptr<Session> session;
    std::optional<CancellationToken> token;  // from the request deadline
  };
  /// The front half Execute and ExecuteBatch share: admission control,
  /// the session lookup and the deadline token. False when the request
  /// was refused (shed or unknown session); `out` then carries the
  /// status. An admitted request is owed one Finish().
  bool Admit(const Request& request, Admission* admission, Response* out);
  /// The body, on the thread that runs the request: the wait for a slot,
  /// the queue-wait sample, the Request span, the queue-expiry precheck,
  /// Run, the slot release, and the slow-request log.
  void Serve(const Request& request, const Admission& admission, bool batch,
             Response* out);
  /// Books a served request: FinishOne, its latency and its outcome.
  void Finish(const Request& request, const Admission& admission,
              Response* out);

  ServiceOptions options_;
  /// One per request running (ServiceOptions::max_in_flight).
  std::counting_semaphore<> slots_;
  MetricsRegistry registry_;
  std::optional<MetricsScope> metrics_scope_;
  /// Per-request hot-path metric handles, resolved once at construction:
  /// Execute()/ExecuteBatch() update lock-free atomics instead of paying
  /// a name lookup (shard mutex + hash) per request. Handles stay valid
  /// for the registry's (= this service's) lifetime.
  MetricCounter* requests_total_ = nullptr;
  MetricCounter* started_total_ = nullptr;
  MetricHistogram* queue_wait_us_ = nullptr;
  MetricHistogram* latency_us_ = nullptr;
  MetricHistogram* verb_latency_us_[7] = {};  // indexed by RequestKind
  std::unique_ptr<ThreadPool> pool_;  // runs ExecuteBatch's items

  mutable std::mutex sessions_mu_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  uint64_t next_session_ = 1;

  std::atomic<uint32_t> pending_{0};  // admitted: queued + running
  std::atomic<uint64_t> completed_{0};
  /// ServiceOptions::read_only, flipped by Promote() / Demote().
  std::atomic<bool> read_only_{false};
  /// Set by Demote(), cleared by Promote(): mutations answer "fenced
  /// term=N" instead of "readonly".
  std::atomic<bool> fenced_{false};
  /// Mirrors the catalog term (1 without a catalog). Guarded for writers
  /// by role_mu_; readers use the atomic.
  std::atomic<uint64_t> term_{1};
  /// Serializes role/term transitions (Promote, Demote, term adoption in
  /// ApplyReplicated) so concurrent demotions cannot interleave the
  /// persist-then-publish sequence.
  std::mutex role_mu_;
  mutable std::mutex repl_probe_mu_;
  std::function<ReplicationHealth()> repl_probe_;
  std::function<void(uint64_t, const std::string&)> demotion_handler_;
  /// ServiceOptions::budget. Mutable: const request paths (Run) charge
  /// work against it; charging is internally synchronized (atomics).
  mutable std::optional<ResourceBudget> budget_;
  std::atomic<bool> draining_{false};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

}  // namespace oocq::server

#endif  // OOCQ_SERVER_SERVICE_H_
