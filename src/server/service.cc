#include "server/service.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <future>
#include <utility>

#include "core/containment.h"
#include "core/expansion.h"
#include "core/explain.h"
#include "core/optimizer.h"
#include "core/prepared.h"
#include "core/satisfiability.h"
#include "parser/parser.h"
#include "parser/state_parser.h"
#include "query/printer.h"
#include "query/well_formed.h"
#include "state/evaluation.h"
#include "support/failpoint.h"
#include "support/log.h"
#include "support/status_macros.h"
#include "support/trace.h"

namespace oocq::server {

namespace {

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One finished request's outcome → the registry, classified through the
/// shared retryable taxonomy (IsRetryable, support/status.h) rather than
/// per-code special cases. The per-code counters under the rollup keep
/// dashboards able to tell expiry from shedding from budget overrun.
void CountOutcome(MetricsRegistry& registry, const Status& status) {
  if (status.ok()) {
    registry.Add("server/ok", 1);
    return;
  }
  if (!IsRetryable(status.code())) {
    registry.Add("server/errors", 1);
    return;
  }
  registry.Add("server/retryable", 1);
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
      registry.Add("server/deadline_exceeded", 1);
      break;
    case StatusCode::kResourceExhausted:
      registry.Add("server/resource_exhausted", 1);
      break;
    default:
      registry.Add("server/unavailable", 1);
      break;
  }
}

/// The follower-mode refusal every mutating entry point shares. The
/// message leads with "readonly" — the wire contract clients and the
/// router key failover on (ERR FAILED_PRECONDITION readonly ...).
Status ReadonlyError() {
  return Status::FailedPrecondition(
      "readonly: this node is a replication follower; send writes to the "
      "primary");
}

/// The fenced refusal: a demoted primary answers mutations with a term
/// so routers re-resolve to the higher-term primary instead of merely
/// redirecting (ERR FAILED_PRECONDITION fenced term=N ...).
Status FencedError(uint64_t term) {
  return Status::FailedPrecondition(
      "fenced term=" + std::to_string(term) +
      ": a higher-term primary exists; re-resolve and send writes there");
}

}  // namespace

const char* RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kMinimize:
      return "minimize";
    case RequestKind::kContained:
      return "contained";
    case RequestKind::kEquivalent:
      return "equivalent";
    case RequestKind::kUnionContained:
      return "union_contained";
    case RequestKind::kSatisfiable:
      return "satisfiable";
    case RequestKind::kEvaluate:
      return "evaluate";
    case RequestKind::kExplain:
      return "explain";
  }
  return "unknown";
}

OocqService::OocqService(ServiceOptions options)
    : options_(std::move(options)),
      slots_(std::max<uint32_t>(options_.max_in_flight, 1)) {
  if (options_.max_in_flight < 1) options_.max_in_flight = 1;
  if (options_.metrics) metrics_scope_.emplace(&registry_);
  requests_total_ = registry_.Counter("server/requests");
  started_total_ = registry_.Counter("server/started");
  queue_wait_us_ = registry_.Histogram("server/queue_wait_us");
  latency_us_ = registry_.Histogram("server/latency_us");
  for (int kind = 0; kind < 7; ++kind) {
    verb_latency_us_[kind] = registry_.Histogram(
        std::string("server/verb/") +
        RequestKindName(static_cast<RequestKind>(kind)) + "_us");
  }
  if (!options_.failpoints.empty()) {
    Status armed = Failpoints::Configure(options_.failpoints);
    if (!armed.ok()) registry_.Add("failpoint/config_errors", 1);
  }
  if (options_.budget.AnySet()) budget_.emplace(options_.budget);
  read_only_.store(options_.read_only, std::memory_order_relaxed);
  if (options_.catalog != nullptr) {
    term_.store(options_.catalog->term(), std::memory_order_release);
  }
  pool_ = std::make_unique<ThreadPool>(options_.max_in_flight);
  if (options_.catalog != nullptr) {
    RestoreFromCatalog();
    options_.catalog->StartSnapshotter([this] { return DumpCatalog(); });
  }
}

OocqService::~OocqService() {
  Drain();
  if (options_.catalog != nullptr) {
    options_.catalog->StopSnapshotter();
    // Final compaction: the snapshot carries the warm containment cache
    // into the next process. Then detach the dump — the catalog may
    // outlive this service.
    (void)options_.catalog->SnapshotNow();
    options_.catalog->StartSnapshotter(nullptr);
  }
  // The pool joins before the metrics scope (a member declared earlier)
  // is torn down, so late task metrics never land in a dead registry.
  pool_.reset();
}

StatusOr<std::string> OocqService::CreateSession(
    const std::string& schema_text) {
  if (read_only()) return fenced() ? FencedError(term()) : ReadonlyError();
  uint64_t minted;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    minted = next_session_++;
  }
  persist::Record record{.type = persist::RecordType::kCreateSession,
                         .session_id = "s" + std::to_string(minted),
                         .text = schema_text};
  if (Status committed = Commit(record, Origin::kClient); !committed.ok()) {
    // A refused create consumes no id (unless a concurrent create already
    // claimed the next one), so a scripted retry lands on the same name.
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (next_session_ == minted + 1) next_session_ = minted;
    return committed;
  }
  registry_.Add("server/sessions_created", 1);
  return record.session_id;
}

Status OocqService::DropSession(const std::string& session_id) {
  if (read_only()) return fenced() ? FencedError(term()) : ReadonlyError();
  return Commit({.type = persist::RecordType::kDropSession,
                 .session_id = session_id},
                Origin::kClient);
}

StatusOr<std::shared_ptr<OocqService::Session>> OocqService::FindSession(
    const std::string& session_id) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("no session '" + session_id + "'");
  }
  return it->second;
}

Status OocqService::DefineQuery(const std::string& session_id,
                                const std::string& name,
                                const std::string& query_text) {
  if (read_only()) return fenced() ? FencedError(term()) : ReadonlyError();
  // Parsed here only to refuse an invalid definition before it is logged:
  // the registry keeps the text, and the first use parses it again.
  OOCQ_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                        FindSession(session_id));
  OOCQ_RETURN_IF_ERROR(ParseQuery(session->schema, query_text).status());
  // A failed append leaves the definition live in memory; redefinition is
  // idempotent, so the client's retry converges.
  return Commit({.type = persist::RecordType::kDefineQuery,
                 .session_id = session_id,
                 .name = name,
                 .text = query_text},
                Origin::kClient);
}

Status OocqService::LoadState(const std::string& session_id,
                              const std::string& state_text) {
  if (read_only()) return fenced() ? FencedError(term()) : ReadonlyError();
  return Commit({.type = persist::RecordType::kSetState,
                 .session_id = session_id,
                 .text = state_text},
                Origin::kClient);
}

size_t OocqService::session_count() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

std::vector<std::string> OocqService::SessionIds() const {
  std::vector<std::string> ids;
  std::lock_guard<std::mutex> lock(sessions_mu_);
  ids.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) ids.push_back(id);
  return ids;  // std::map iteration: already sorted
}

Status OocqService::ApplyReplicated(const persist::Record& record,
                                    uint64_t term) {
  OOCQ_RETURN_IF_ERROR(Failpoints::Check("repl/apply"));
  if (term != 0) {
    const uint64_t current = term_.load(std::memory_order_acquire);
    if (term < current) {
      // The single-writer invariant's last line of defense: a record
      // shipped by a stale (pre-fence) primary never enters this WAL.
      registry_.Add("repl/rejected_records", 1);
      return Status::FailedPrecondition(
          "fenced record: shipped under term " + std::to_string(term) +
          " but this node is at term " + std::to_string(current));
    }
    if (term > current) {
      std::lock_guard<std::mutex> lock(role_mu_);
      if (term > term_.load(std::memory_order_acquire)) {
        if (options_.catalog != nullptr) {
          OOCQ_RETURN_IF_ERROR(options_.catalog->SetTerm(term));
        }
        term_.store(term, std::memory_order_release);
      }
    }
  }
  // The client mutations' commit, so replay==acked holds on the follower
  // exactly as on the primary.
  return Commit(record, Origin::kReplication);
}

Status OocqService::Promote(uint64_t min_term) {
  std::lock_guard<std::mutex> lock(role_mu_);
  if (!read_only_.load(std::memory_order_relaxed)) return Status::Ok();
  OOCQ_RETURN_IF_ERROR(Failpoints::Check("repl/promote"));
  // Claim write authority under a fresh term, durably, *before* the
  // readonly gate opens: the first acked write must already be covered
  // by a term that survives restart.
  const uint64_t next =
      std::max(term_.load(std::memory_order_acquire) + 1, min_term);
  if (options_.catalog != nullptr) {
    OOCQ_RETURN_IF_ERROR(options_.catalog->SetTerm(next));
  }
  term_.store(next, std::memory_order_release);
  fenced_.store(false, std::memory_order_relaxed);
  read_only_.store(false, std::memory_order_relaxed);
  registry_.Add("repl/promotions", 1);
  OOCQ_LOG(Info, "repl")
      .Msg("promoted to primary; accepting writes")
      .With("term", next);
  return Status::Ok();
}

Status OocqService::Demote(uint64_t observed_term,
                           const std::string& new_primary) {
  std::function<void(uint64_t, const std::string&)> handler;
  uint64_t adopted = 0;
  {
    std::lock_guard<std::mutex> lock(role_mu_);
    const uint64_t current = term_.load(std::memory_order_acquire);
    if (observed_term < current) {
      return Status::FailedPrecondition(
          "stale term: demotion names term " + std::to_string(observed_term) +
          " but this node is at term " + std::to_string(current));
    }
    const bool was_primary = !read_only_.load(std::memory_order_relaxed);
    if (was_primary && observed_term == current && new_primary.empty()) {
      // A tied demotion must name the winner: otherwise two dueling
      // primaries at the same term could demote each other and leave
      // no writer at all.
      return Status::FailedPrecondition(
          "refusing tied demotion at term " + std::to_string(current) +
          " without a named successor");
    }
    if (observed_term > current) {
      if (options_.catalog != nullptr) {
        OOCQ_RETURN_IF_ERROR(options_.catalog->SetTerm(observed_term));
      }
      term_.store(observed_term, std::memory_order_release);
    }
    adopted = term_.load(std::memory_order_acquire);
    if (!was_primary) return Status::Ok();  // follower: term adopted, done
    OOCQ_RETURN_IF_ERROR(Failpoints::Check("repl/fence"));
    fenced_.store(true, std::memory_order_relaxed);
    read_only_.store(true, std::memory_order_relaxed);
    registry_.Add("repl/demotions", 1);
    OOCQ_LOG(Info, "repl")
        .Msg("fenced: stepping down to follower")
        .With("term", adopted)
        .With("new_primary", new_primary.empty() ? "<unknown>" : new_primary);
  }
  {
    std::lock_guard<std::mutex> lock(repl_probe_mu_);
    handler = demotion_handler_;
  }
  // Invoked outside every service lock: the handler typically starts a
  // follower tail (which will call back into this service).
  if (handler) handler(adopted, new_primary);
  return Status::Ok();
}

void OocqService::SetReplicationProbe(
    std::function<ReplicationHealth()> probe) {
  std::lock_guard<std::mutex> lock(repl_probe_mu_);
  repl_probe_ = std::move(probe);
}

void OocqService::SetDemotionHandler(
    std::function<void(uint64_t, const std::string&)> handler) {
  std::lock_guard<std::mutex> lock(repl_probe_mu_);
  demotion_handler_ = std::move(handler);
}

Status OocqService::Commit(const persist::Record& record, Origin origin) {
  std::shared_lock<std::shared_mutex> guard;
  if (options_.catalog != nullptr) guard = options_.catalog->MutationGuard();
  OOCQ_ASSIGN_OR_RETURN(const bool changed, ApplyRecord(record));
  if (origin == Origin::kReplication) {
    registry_.Add("repl/applied_records", 1);
  } else if (!changed) {
    // A client's create mints a fresh id, so only its drop can change
    // nothing: the id is unknown, or a concurrent drop erased it first.
    return Status::NotFound("no session '" + record.session_id + "'");
  }
  if (options_.catalog == nullptr) return Status::Ok();
  Status logged = options_.catalog->Log(record);
  if (logged.ok()) return Status::Ok();
  registry_.Add("persist/log_failures", 1);
  if (origin == Origin::kClient &&
      record.type == persist::RecordType::kCreateSession) {
    // Unlogged sessions are never acked: roll back the session this
    // commit inserted, so the client can retry (or fail over) with a
    // consistent view. A follower keeps what it applied and tails on.
    (void)ApplyRecord({.type = persist::RecordType::kDropSession,
                       .session_id = record.session_id});
  }
  return logged;
}

StatusOr<bool> OocqService::ApplyRecord(const persist::Record& record) {
  switch (record.type) {
    case persist::RecordType::kCreateSession: {
      OOCQ_ASSIGN_OR_RETURN(Schema schema, ParseSchema(record.text));
      auto session = std::make_shared<Session>(std::move(schema));
      session->schema_text = record.text;
      // The cache binds to the Session-owned schema, whose address is
      // stable for the session's lifetime (sessions are held by
      // shared_ptr). Compiled programs depend only on the schema and the
      // query text, so a STATE never invalidates them.
      session->cache = MakeContainmentCache(&session->schema, options_.engine);
      if (options_.engine.enable_compilation) {
        session->programs = std::make_unique<compile::ProgramCache>();
      }
      std::lock_guard<std::mutex> lock(sessions_mu_);
      // Idempotent: a crash between snapshot rename and WAL reset makes
      // the WAL replay records the snapshot already holds.
      if (sessions_.count(record.session_id) != 0) return false;
      OOCQ_RETURN_IF_ERROR(Recharge(*session, 0, record.text.size()));
      sessions_.emplace(record.session_id, std::move(session));
      // Persisted ids are never reused: "s<N>" bumps the counter past N.
      if (record.session_id.size() > 1 && record.session_id[0] == 's') {
        const std::string digits = record.session_id.substr(1);
        if (std::all_of(digits.begin(), digits.end(), [](unsigned char c) {
              return std::isdigit(c) != 0;
            })) {
          uint64_t n = std::strtoull(digits.c_str(), nullptr, 10);
          next_session_ = std::max(next_session_, n + 1);
        }
      }
      return true;
    }
    case persist::RecordType::kDefineQuery: {
      // The text alone: its first use parses it (NamedQuery).
      OOCQ_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                            FindSession(record.session_id));
      std::unique_lock<std::shared_mutex> lock(session->mu);
      auto old = session->named.find(record.name);
      OOCQ_RETURN_IF_ERROR(RechargeRegistered(
          record.session_id, *session,
          old != session->named.end() ? old->second.text.size() : 0,
          record.text.size()));
      // A fresh entry: the old text's parse and expansion go with it.
      if (old != session->named.end()) session->named.erase(old);
      session->named.try_emplace(record.name, record.text);
      return true;
    }
    case persist::RecordType::kSetState: {
      OOCQ_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                            FindSession(record.session_id));
      OOCQ_ASSIGN_OR_RETURN(State state,
                            ParseState(&session->schema, record.text));
      std::unique_lock<std::shared_mutex> lock(session->mu);
      OOCQ_RETURN_IF_ERROR(RechargeRegistered(
          record.session_id, *session,
          session->state.has_value() ? session->state->text.size() : 0,
          record.text.size()));
      session->state.emplace(
          Registered<State>{record.text, std::move(state)});
      return true;
    }
    case persist::RecordType::kDropSession: {
      // In-flight requests keep the Session alive through their
      // shared_ptr; dropping only unregisters the id. The last reference
      // (if this is it) dies after the lock below is released.
      std::shared_ptr<Session> dropped;
      std::lock_guard<std::mutex> lock(sessions_mu_);
      auto it = sessions_.find(record.session_id);
      if (it == sessions_.end()) return false;  // already gone
      dropped = std::move(it->second);
      sessions_.erase(it);
      // A release never fails.
      (void)Recharge(*dropped, dropped->resident_bytes, 0);
      return true;
    }
    case persist::RecordType::kCacheEntry: {
      OOCQ_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                            FindSession(record.session_id));
      std::shared_lock<std::shared_mutex> lock(session->mu);
      if (session->cache != nullptr) {
        session->cache->Preload(record.text, record.verdict);
      }
      return true;
    }
  }
  return Status::Internal("unknown record type");
}

void OocqService::RestoreFromCatalog() {
  size_t sessions_before;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_before = sessions_.size();
  }
  size_t applied = 0;
  size_t skipped = 0;
  size_t cache_entries = 0;
  for (const persist::Record& record : options_.catalog->recovered()) {
    // A record that no longer parses (hand-edited file, removed feature)
    // is skipped and counted — recovery always completes.
    if (ApplyRecord(record).ok()) {
      ++applied;
      if (record.type == persist::RecordType::kCacheEntry) ++cache_entries;
    } else {
      ++skipped;
    }
  }
  registry_.Add("persist/restored_records", applied);
  registry_.Add("persist/restored_cache_entries", cache_entries);
  if (skipped != 0) registry_.Add("persist/restore_skipped", skipped);
  size_t restored;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    restored = sessions_.size() - sessions_before;
  }
  registry_.Add("server/sessions_restored", restored);
}

std::vector<persist::Record> OocqService::DumpCatalog() {
  std::vector<persist::Record> records;
  std::vector<std::pair<std::string, std::shared_ptr<Session>>> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions.assign(sessions_.begin(), sessions_.end());
  }
  size_t cache_budget = options_.catalog != nullptr
                            ? options_.catalog->options().max_cache_entries
                            : 0;
  const bool cache_unlimited = cache_budget == 0;
  for (const auto& [id, session] : sessions) {
    std::shared_lock<std::shared_mutex> lock(session->mu);
    records.push_back({.type = persist::RecordType::kCreateSession,
                       .session_id = id,
                       .text = session->schema_text});
    for (const auto& [name, query] : session->named) {
      records.push_back({.type = persist::RecordType::kDefineQuery,
                         .session_id = id,
                         .name = name,
                         .text = query.text});
    }
    if (session->state.has_value()) {
      records.push_back({.type = persist::RecordType::kSetState,
                         .session_id = id,
                         .text = session->state->text});
    }
    if (session->cache != nullptr && (cache_unlimited || cache_budget > 0)) {
      // Only decided verdicts are exported; errors (deadline expiry
      // included) are never memoized, so they can never be persisted.
      for (auto& [key, verdict] :
           session->cache->Export(cache_unlimited ? 0 : cache_budget)) {
        persist::Record entry;
        entry.type = persist::RecordType::kCacheEntry;
        entry.session_id = id;
        entry.text = std::move(key);
        entry.verdict = verdict;
        records.push_back(std::move(entry));
        if (!cache_unlimited) --cache_budget;
      }
    }
  }
  return records;
}

Status OocqService::AdmitOne() {
  if (draining_.load(std::memory_order_relaxed)) {
    registry_.Add("server/shed", 1);
    return Status::Unavailable("server draining; retry elsewhere");
  }
  const uint32_t limit = options_.max_in_flight + options_.max_queue_depth;
  if (pending_.fetch_add(1, std::memory_order_acq_rel) >= limit) {
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    registry_.Add("server/shed", 1);
    return Status::Unavailable("admission queue full; retry with backoff");
  }
  return Status::Ok();
}

void OocqService::FinishOne() {
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(drain_mu_);
    drain_cv_.notify_all();
  }
}

StatusOr<const ConjunctiveQuery*> OocqService::NamedQuery::Parsed(
    const Schema& schema) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ParsedLocked(schema);
}

StatusOr<const ConjunctiveQuery*> OocqService::NamedQuery::ParsedLocked(
    const Schema& schema) const {
  if (parsed_ == nullptr) {
    OOCQ_ASSIGN_OR_RETURN(ConjunctiveQuery query, ParseQuery(schema, text));
    parsed_ = std::make_unique<const ConjunctiveQuery>(std::move(query));
  }
  return parsed_.get();
}

StatusOr<PreparedQuery> OocqService::NamedQuery::Prepare(
    const Schema& schema, const ExpansionOptions& options) const {
  // The parse and the expansion, once made, are immutable and live as
  // long as this entry, which outlasts every request holding the
  // session's lock.
  const TerminalExpansion* expansion = nullptr;
  bool charged = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (expansion_ == nullptr) {
      // First use: the expansion charges options.budget itself.
      OOCQ_ASSIGN_OR_RETURN(const ConjunctiveQuery* query,
                            ParsedLocked(schema));
      OOCQ_ASSIGN_OR_RETURN(
          TerminalExpansion fresh,
          NormalizeAndExpand(schema, *query, options));
      expansion_ = std::make_unique<const TerminalExpansion>(std::move(fresh));
      charged = true;
    }
    expansion = expansion_.get();
  }
  PreparedQuery prepared = PrepareExpansion(schema, *expansion);
  if (!charged) OOCQ_RETURN_IF_ERROR(prepared.ChargeReuse(options.budget));
  return prepared;
}

Status OocqService::Recharge(Session& session, uint64_t from, uint64_t to) {
  if (from == to || !budget_.has_value()) return Status::Ok();
  if (to < from) {
    const uint64_t bytes = std::min(from - to, session.resident_bytes);
    budget_->ReleaseResidentBytes(bytes);
    session.resident_bytes -= bytes;
    return Status::Ok();
  }
  Status charged = budget_->ChargeResidentBytes(to - from);
  if (!charged.ok()) {
    registry_.Add("server/budget_exhausted", 1);
    return charged;
  }
  session.resident_bytes += to - from;
  return Status::Ok();
}

Status OocqService::RechargeRegistered(const std::string& session_id,
                                       Session& session, uint64_t from,
                                       uint64_t to) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end() || it->second.get() != &session) {
    return Status::NotFound("no session '" + session_id + "'");
  }
  return Recharge(session, from, to);
}

ServiceHealth OocqService::CollectHealth() const {
  ServiceHealth health;
  health.pending = pending();
  health.completed = completed();
  health.draining = draining();
  health.sessions = session_count();
  if (const ResourceBudget* b = budget()) {
    const ResourceLimits& limits = b->limits();
    health.has_budget = true;
    health.resident_bytes = b->resident_bytes();
    health.max_resident_bytes = limits.max_resident_bytes;
    health.work_units = b->work_units_charged();
    health.max_work_units = limits.max_subset_work_units;
    health.disjuncts = b->disjuncts_charged();
    health.max_disjuncts = limits.max_expanded_disjuncts;
    health.exhausted = b->exhausted_count();
  }
  {
    std::lock_guard<std::mutex> lock(repl_probe_mu_);
    if (repl_probe_) health.repl = repl_probe_();
  }
  if (!health.repl.present) {
    // Primary side: once a subscriber has connected (the protocol layer
    // counts repl/subscribes), ship-side telemetry joins the snapshot.
    // A never-replicated server keeps its pre-replication HEALTH/STATS
    // output byte-compatible.
    if (registry_.CounterValue("repl/subscribes") > 0) {
      health.repl.present = true;
      health.repl.role = "primary";
      health.repl.connected = true;
      // Counter names avoid the exact gauge names StatsText() emits, so
      // the exposition never carries two samples of one metric.
      health.repl.shipped_bytes = registry_.CounterValue("repl/ship_bytes");
      if (options_.catalog != nullptr &&
          options_.catalog->wal() != nullptr) {
        health.repl.epoch = options_.catalog->wal()->epoch();
      }
    }
  }
  if (health.repl.present && health.repl.term == 0) {
    health.repl.term = term();
  }
  return health;
}

std::string OocqService::StatsText() const {
  std::string out = PrometheusString(registry_.Snap());
  const ServiceHealth health = CollectHealth();
  auto gauge = [&out](const char* name, uint64_t value) {
    out += "# TYPE ";
    out += name;
    out += " gauge\n";
    out += name;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  };
  gauge("oocq_server_pending", health.pending);
  gauge("oocq_server_completed_total", health.completed);
  gauge("oocq_server_draining", health.draining ? 1 : 0);
  gauge("oocq_server_sessions", health.sessions);
  if (health.has_budget) {
    gauge("oocq_budget_resident_bytes", health.resident_bytes);
    gauge("oocq_budget_resident_bytes_limit", health.max_resident_bytes);
    gauge("oocq_budget_work_units", health.work_units);
    gauge("oocq_budget_work_units_limit", health.max_work_units);
    gauge("oocq_budget_disjuncts", health.disjuncts);
    gauge("oocq_budget_disjuncts_limit", health.max_disjuncts);
    gauge("oocq_budget_exhausted_total", health.exhausted);
  }
  if (health.repl.present) {
    // The replication satellite gauges (docs/replication.md#telemetry):
    // lag in records behind the primary's durable tip, and frame bytes
    // shipped to subscribers. Both sides emit both names so dashboards
    // need one query regardless of role.
    gauge("oocq_repl_lag_records", health.repl.lag_records);
    gauge("oocq_repl_shipped_bytes", health.repl.shipped_bytes);
    gauge("oocq_repl_connected", health.repl.connected ? 1 : 0);
    gauge("oocq_repl_epoch", health.repl.epoch);
    gauge("oocq_repl_term", health.repl.term);
  }
  return out;
}

void OocqService::Drain() {
  draining_.store(true, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

Response OocqService::Run(const Request& request, Session& session,
                          const CancellationToken* cancel) const {
  Response response;
  if (Status chaos = Failpoints::Check("service/execute"); !chaos.ok()) {
    response.status = std::move(chaos);
    return response;
  }
  // Engine options for this request: session-wide knobs plus this
  // request's cancellation token on every containment path.
  EngineOptions opts = WithPropagatedParallelism(options_.engine);
  opts.containment.cancel = cancel;
  // Per-request budget (engine.limits) chained under the service-wide one,
  // so both the per-request and the aggregate ceilings hold; the work it
  // charged is returned to the service budget when this request finishes.
  std::optional<ResourceBudget> request_budget;
  if (opts.limits.AnySet() || budget_.has_value()) {
    request_budget.emplace(opts.limits,
                           budget_.has_value() ? &*budget_ : nullptr);
    opts.containment.budget = &*request_budget;
    opts.expansion.budget = &*request_budget;
  }

  std::shared_lock<std::shared_mutex> lock(session.mu);
  const Schema& schema = session.schema;
  ContainmentCache* cache = session.cache.get();

  // A query field: `@name` reads a registered query (parsed on its first
  // use), anything else is parsed into `*parsed`. Returns the registered
  // entry, or null for parsed text.
  auto lookup = [&](const std::string& text, ConjunctiveQuery* parsed)
      -> StatusOr<const NamedQuery*> {
    if (text.empty() || text[0] != '@') {
      OOCQ_ASSIGN_OR_RETURN(*parsed, ParseQuery(schema, text));
      return nullptr;
    }
    // Unary verbs pass their payload line on with its trailing newline.
    const std::string name = text.substr(1, text.find_last_not_of(" \t\r\n"));
    auto it = session.named.find(name);
    if (it == session.named.end()) {
      return Status::NotFound("no registered query '" + name + "'");
    }
    // Only a recovered text can fail here (a client DEFINE is parsed
    // before it is logged); it answers as if it were never registered.
    if (Status parses = it->second.Parsed(schema).status(); !parses.ok()) {
      return Status::NotFound("no registered query '" + name +
                              "': its text does not parse: " +
                              parses.message());
    }
    return &it->second;
  };
  auto resolve = [&](const std::string& text) -> StatusOr<ConjunctiveQuery> {
    ConjunctiveQuery parsed;
    OOCQ_ASSIGN_OR_RETURN(const NamedQuery* named, lookup(text, &parsed));
    if (named == nullptr) return parsed;
    OOCQ_ASSIGN_OR_RETURN(const ConjunctiveQuery* query,
                          named->Parsed(schema));
    return *query;
  };
  // A decision operand: looked up (or parsed) first, so a bad second
  // operand reports before the first expands, as it always has; then
  // prepared for this request — a registered query from its expansion
  // slot, parsed text by expanding it here.
  struct Operand {
    const NamedQuery* named = nullptr;
    ConjunctiveQuery parsed;
  };
  auto operand = [&](const std::string& text) -> StatusOr<Operand> {
    Operand op;
    OOCQ_ASSIGN_OR_RETURN(op.named, lookup(text, &op.parsed));
    return op;
  };
  auto prepare = [&](const Operand& op) -> StatusOr<PreparedQuery> {
    if (op.named != nullptr) return op.named->Prepare(schema, opts.expansion);
    return PrepareQuery(schema, op.parsed, opts.expansion);
  };

  switch (request.kind) {
    case RequestKind::kMinimize: {
      StatusOr<ConjunctiveQuery> query = resolve(request.query);
      if (!query.ok()) {
        response.status = query.status();
        return response;
      }
      StatusOr<ConjunctiveQuery> well_formed =
          NormalizeToWellFormed(schema, *query);
      if (!well_formed.ok()) {
        response.status = well_formed.status();
        return response;
      }
      StatusOr<MinimizationReport> report =
          MinimizeWellFormedQuery(schema, *well_formed, opts, cache);
      if (!report.ok()) {
        response.status = report.status();
        return response;
      }
      response.verdict = well_formed->IsPositive();  // §4 exact
      response.body = UnionQueryToString(schema, report->minimized);
      return response;
    }
    case RequestKind::kContained:
    case RequestKind::kEquivalent: {
      StatusOr<Operand> op1 = operand(request.query);
      StatusOr<Operand> op2 = operand(request.query2);
      if (!op1.ok() || !op2.ok()) {
        response.status = !op1.ok() ? op1.status() : op2.status();
        return response;
      }
      StatusOr<PreparedQuery> m = prepare(*op1);
      if (!m.ok()) {
        response.status = m.status();
        return response;
      }
      StatusOr<PreparedQuery> n = prepare(*op2);
      if (!n.ok()) {
        response.status = n.status();
        return response;
      }
      StatusOr<bool> forward =
          QueryContained(schema, *m, *n, opts.containment, cache);
      if (!forward.ok()) {
        response.status = forward.status();
        return response;
      }
      if (request.kind == RequestKind::kContained || !*forward) {
        response.verdict = *forward;
        return response;
      }
      // The backward test is charged as if it expanded Q2 and Q1 again.
      Status charged = n->ChargeReuse(opts.expansion.budget);
      if (charged.ok()) charged = m->ChargeReuse(opts.expansion.budget);
      if (!charged.ok()) {
        response.status = std::move(charged);
        return response;
      }
      StatusOr<bool> backward =
          QueryContained(schema, *n, *m, opts.containment, cache);
      if (!backward.ok()) {
        response.status = backward.status();
        return response;
      }
      response.verdict = *backward;
      return response;
    }
    case RequestKind::kUnionContained: {
      PreparedDisjuncts m, n;
      for (const auto* side : {&request.union_m, &request.union_n}) {
        PreparedDisjuncts& out = side == &request.union_m ? m : n;
        for (const std::string& text : *side) {
          StatusOr<Operand> op = operand(text);
          StatusOr<PreparedQuery> prepared =
              op.ok() ? prepare(*op) : StatusOr<PreparedQuery>(op.status());
          if (!prepared.ok()) {
            response.status = prepared.status();
            return response;
          }
          out.insert(out.end(), prepared->disjuncts.begin(),
                     prepared->disjuncts.end());
        }
      }
      StatusOr<bool> verdict =
          UnionContained(schema, m, n, opts.containment, nullptr, cache);
      if (!verdict.ok()) {
        response.status = verdict.status();
        return response;
      }
      response.verdict = *verdict;
      return response;
    }
    case RequestKind::kSatisfiable: {
      StatusOr<ConjunctiveQuery> query = resolve(request.query);
      if (!query.ok()) {
        response.status = query.status();
        return response;
      }
      StatusOr<ConjunctiveQuery> well_formed =
          NormalizeToWellFormed(schema, *query);
      if (!well_formed.ok()) {
        response.status = well_formed.status();
        return response;
      }
      if (!well_formed->IsTerminal(schema)) {
        response.status = Status::FailedPrecondition(
            "satisfiable requires a terminal query; minimize first");
        return response;
      }
      SatisfiabilityResult result = CheckSatisfiable(schema, *well_formed);
      response.verdict = result.satisfiable;
      if (!result.satisfiable) response.body = result.reason;
      return response;
    }
    case RequestKind::kEvaluate: {
      if (!session.state.has_value()) {
        response.status = Status::FailedPrecondition(
            "session has no state loaded; send one first");
        return response;
      }
      StatusOr<ConjunctiveQuery> query = resolve(request.query);
      if (!query.ok()) {
        response.status = query.status();
        return response;
      }
      StatusOr<ConjunctiveQuery> well_formed =
          NormalizeToWellFormed(schema, *query);
      if (!well_formed.ok()) {
        response.status = well_formed.status();
        return response;
      }
      EvalOptions eval_options;
      eval_options.cancel = cancel;
      eval_options.enable_compilation = opts.enable_compilation;
      if (eval_options.enable_compilation && session.programs != nullptr) {
        eval_options.program =
            session.programs->GetOrCompile(schema, *well_formed);
      }
      StatusOr<std::vector<Oid>> answers =
          Evaluate(session.state->parsed, *well_formed, eval_options);
      if (!answers.ok()) {
        response.status = answers.status();
        return response;
      }
      response.verdict = !answers->empty();
      for (Oid oid : *answers) {
        response.body += session.state->parsed.DebugString(oid);
        response.body += '\n';
      }
      return response;
    }
    case RequestKind::kExplain: {
      StatusOr<ConjunctiveQuery> q1 = resolve(request.query);
      StatusOr<ConjunctiveQuery> q2 = resolve(request.query2);
      if (!q1.ok() || !q2.ok()) {
        response.status = !q1.ok() ? q1.status() : q2.status();
        return response;
      }
      StatusOr<ContainmentExplanation> explanation =
          ExplainContainment(schema, *q1, *q2, opts.containment);
      if (!explanation.ok()) {
        response.status = explanation.status();
        return response;
      }
      response.verdict = explanation->contained;
      response.body = explanation->text;
      return response;
    }
  }
  response.status = Status::Internal("unhandled request kind");
  return response;
}

bool OocqService::Admit(const Request& request, Admission* admission,
                        Response* out) {
  const uint64_t admitted_us = NowUs();
  requests_total_->Add(1);
  Status admitted = AdmitOne();
  if (!admitted.ok()) {
    out->status = std::move(admitted);
    out->latency_us = NowUs() - admitted_us;
    return false;
  }
  StatusOr<std::shared_ptr<Session>> session = FindSession(request.session_id);
  if (!session.ok()) {
    FinishOne();
    out->status = session.status();
    out->latency_us = NowUs() - admitted_us;
    return false;
  }
  admission->admitted_us = admitted_us;
  admission->session = *std::move(session);
  const uint64_t deadline_ms = request.deadline_ms != 0
                                   ? request.deadline_ms
                                   : options_.default_deadline_ms;
  if (deadline_ms != 0) {
    admission->token.emplace(std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(deadline_ms));
  }
  return true;
}

void OocqService::Serve(const Request& request, const Admission& admission,
                        bool batch, Response* out) {
  slots_.acquire();
  queue_wait_us_->Record(NowUs() - admission.admitted_us);
  const CancellationToken* cancel =
      admission.token.has_value() ? &*admission.token : nullptr;
  // Slow-request diagnostics: capture this thread's span tree so a
  // request over the threshold can be logged with its full breakdown
  // (engine phases, WAL appends) even when no TraceSession is active.
  std::optional<ThreadSpanCapture> capture;
  if (options_.slow_request_us != 0) capture.emplace();
  {
    OOCQ_TRACE_SPAN(span, "Request");
    span.Arg("kind", RequestKindName(request.kind));
    if (batch) span.Arg("batch", "true");
    if (!request.request_id.empty()) span.Arg("id", request.request_id);
    started_total_->Add(1);
    // A request that out-waited its deadline for a slot is answered
    // without touching the engine.
    Status live = cancel != nullptr ? cancel->Check() : Status::Ok();
    if (!live.ok()) {
      out->status = std::move(live);
    } else {
      *out = Run(request, *admission.session, cancel);
    }
    if (span.recording()) {
      span.Arg("status", StatusCodeToString(out->status.code()));
    }
  }
  slots_.release();
  if (capture.has_value()) {
    const uint64_t elapsed_us = NowUs() - admission.admitted_us;
    if (elapsed_us >= options_.slow_request_us) {
      registry_.Add("server/slow_requests", 1);
      OOCQ_LOG(Warn, "server")
          .Msg("slow request")
          .With("kind", RequestKindName(request.kind))
          .With("id", request.request_id)
          .With("session", request.session_id)
          .With("status", StatusCodeToString(out->status.code()))
          .With("latency_us", elapsed_us)
          .With("spans", capture->Render());
    }
  }
}

void OocqService::Finish(const Request& request, const Admission& admission,
                         Response* out) {
  FinishOne();
  out->latency_us = NowUs() - admission.admitted_us;
  latency_us_->Record(out->latency_us);
  verb_latency_us_[static_cast<int>(request.kind)]->Record(out->latency_us);
  CountOutcome(registry_, out->status);
}

Response OocqService::Execute(const Request& request) {
  Response response;
  Admission admission;
  if (Admit(request, &admission, &response)) {
    Serve(request, admission, /*batch=*/false, &response);
    Finish(request, admission, &response);
  }
  return response;
}

std::vector<Response> OocqService::ExecuteBatch(
    const std::vector<Request>& requests) {
  registry_.Add("server/batches", 1);
  // Each request is admitted independently and served on the pool, which
  // is the fan-out; every item still takes a slot, so max_in_flight
  // bounds engine work across Execute and ExecuteBatch. Finishing in
  // order keeps the caller's thread the single completion point, so
  // responses come back in request order.
  std::vector<Response> responses(requests.size());
  std::vector<Admission> admissions(requests.size());
  std::vector<std::future<void>> served(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (Admit(requests[i], &admissions[i], &responses[i])) {
      served[i] = pool_->Submit([this, &requests, &admissions, &responses, i] {
        Serve(requests[i], admissions[i], /*batch=*/true, &responses[i]);
      });
    }
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!served[i].valid()) continue;  // refused at admission
    served[i].wait();
    Finish(requests[i], admissions[i], &responses[i]);
  }
  return responses;
}

}  // namespace oocq::server
