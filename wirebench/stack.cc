#include "stack.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <shared_mutex>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/containment.h"
#include "core/minimization.h"
#include "core/satisfiability.h"
#include "parser/parser.h"
#include "parser/state_parser.h"
#include "persist/codec.h"
#include "persist/snapshot.h"
#include "query/printer.h"
#include "query/well_formed.h"
#include "state/evaluation.h"

namespace wirebench {

using oocq::ConjunctiveQuery;
using oocq::Status;
using oocq::StatusOr;
using oocq::UnionQuery;
using oocq::server::OocqService;
using oocq::server::Request;
using oocq::server::RequestKind;
using oocq::server::Response;

namespace {

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "wirebench: %s\n", what.c_str());
  std::exit(1);
}

/// Protocol payload rendering: one line per body line, a leading '.'
/// dot-stuffed, no trailing partial line.
void AppendPayload(const std::string& body, std::string* out) {
  for (const std::string& line : SplitLines(body)) {
    if (!line.empty() && line[0] == '.') out->push_back('.');
    *out += line;
    out->push_back('\n');
  }
}

const std::string& SessionId() {
  static const std::string id = "s1";
  return id;
}

/// A service with oocq_serve's options, over the catalog in `data_dir`
/// (none when empty): levels 1-3 build theirs here.
std::unique_ptr<OocqService> MakeService(const std::string& data_dir) {
  std::shared_ptr<oocq::persist::DurableCatalog> catalog;
  if (!data_dir.empty()) {
    StatusOr<std::unique_ptr<oocq::persist::DurableCatalog>> opened =
        oocq::persist::DurableCatalog::Open(CatalogOptions(data_dir));
    if (!opened.ok()) Die("catalog open: " + opened.status().ToString());
    catalog = *std::move(opened);
  }
  return std::make_unique<OocqService>(ServeOptions(std::move(catalog)));
}

/// The typed request the protocol layer builds from `op`'s frame.
Request ToRequest(const Op& op) {
  Request request;
  request.session_id = SessionId();
  switch (op.verb) {
    case Verb::kMinimize:
      request.kind = RequestKind::kMinimize;
      request.query = JoinPayload(op.payload);
      break;
    case Verb::kSat:
      request.kind = RequestKind::kSatisfiable;
      request.query = JoinPayload(op.payload);
      break;
    case Verb::kEval:
      request.kind = RequestKind::kEvaluate;
      request.query = JoinPayload(op.payload);
      break;
    case Verb::kContain:
    case Verb::kEquiv:
      request.kind = op.verb == Verb::kContain ? RequestKind::kContained
                                               : RequestKind::kEquivalent;
      request.query = op.payload.at(0);
      request.query2 = op.payload.at(1);
      break;
    case Verb::kUContain: {
      request.kind = RequestKind::kUnionContained;
      bool in_n = false;
      for (const std::string& line : op.payload) {
        if (line == "--") {
          in_n = true;
          continue;
        }
        (in_n ? request.union_n : request.union_m).push_back(line);
      }
      break;
    }
    default:
      Die("ToRequest: not a decision verb");
  }
  return request;
}

/// The reply text the protocol layer renders for a status or response.
std::string RenderStatus(const Status& status) {
  std::string message = status.message();
  std::replace(message.begin(), message.end(), '\n', ' ');
  return std::string("ERR ") + oocq::StatusCodeToString(status.code()) + " " +
         message + "\n.\n";
}

std::string RenderReply(Verb verb, const Response& response) {
  if (!response.status.ok()) return RenderStatus(response.status);
  const char* field = "contained=";
  switch (verb) {
    case Verb::kEquiv:
      field = "equivalent=";
      break;
    case Verb::kSat:
      field = "satisfiable=";
      break;
    case Verb::kMinimize:
      field = "exact=";
      break;
    case Verb::kEval:
      field = "nonempty=";
      break;
    default:
      break;
  }
  std::string text = std::string("OK ") + field +
                     (response.verdict ? "1" : "0") + "\n";
  AppendPayload(response.body, &text);
  return text + ".\n";
}

}  // namespace

oocq::server::ServiceOptions ServeOptions(
    std::shared_ptr<oocq::persist::DurableCatalog> catalog) {
  oocq::server::ServiceOptions options;
  options.engine.enable_compilation = true;
  options.engine.parallel.num_threads = 1;
  options.max_in_flight = 4;
  options.max_queue_depth = 64;
  options.catalog = std::move(catalog);
  return options;
}

oocq::server::EventServerOptions WireOptions() {
  oocq::server::EventServerOptions options;
  options.port = 0;
  options.dispatch_threads = 8;
  options.idle_timeout_ms = 0;
  return options;
}

oocq::persist::DurableCatalogOptions CatalogOptions(const std::string& dir) {
  oocq::persist::DurableCatalogOptions options;
  options.data_dir = dir;
  options.snapshot_interval_s = 0;
  options.group_commit_window_us = 200;
  return options;
}

std::string JoinPayload(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

// ---- catalog template -----------------------------------------------------

void WriteCatalogTemplate(const Workload& workload, const std::string& dir) {
  namespace persist = oocq::persist;
  EngineStack engine(Workload{}, "", nullptr);
  Op session;
  session.verb = Verb::kSession;
  session.payload = SplitLines(workload.schema_text);
  engine.Apply(session, kSetupRequest);

  std::vector<persist::Record> records;
  persist::Record create;
  create.type = persist::RecordType::kCreateSession;
  create.session_id = SessionId();
  create.text = JoinPayload(session.payload);
  records.push_back(create);
  for (const auto& [name, text] : workload.snapshot_defines) {
    Op define;
    define.verb = Verb::kDefine;
    define.name = name;
    define.payload = {text};
    if (engine.Apply(define, kSetupRequest) != "OK\n.\n") {
      Die("catalog template: DEFINE " + name + " refused");
    }
    persist::Record record;
    record.type = persist::RecordType::kDefineQuery;
    record.session_id = SessionId();
    record.name = name;
    record.text = JoinPayload(define.payload);
    records.push_back(std::move(record));
  }
  // The decided pairs' verdicts go in as cache entries, as the service's
  // own snapshot would carry them (warm start).
  for (const auto& [a, b] : workload.decided_pairs) {
    Op contain;
    contain.verb = Verb::kContain;
    contain.payload = {a, b};
    if (engine.Apply(contain, kSetupRequest).rfind("OK ", 0) != 0) {
      Die("catalog template: CONTAIN " + a + " " + b + " refused");
    }
  }
  for (persist::Record& entry : engine.ExportCache()) {
    records.push_back(std::move(entry));
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  Status written = persist::WriteSnapshot(dir, 1, records);
  if (!written.ok()) Die("catalog template: " + written.ToString());

  std::string wal;
  persist::EncodeFileHeader(&wal);
  for (const auto& [name, text] : workload.wal_defines) {
    persist::Record record;
    record.type = persist::RecordType::kDefineQuery;
    record.session_id = SessionId();
    record.name = name;
    record.text = JoinPayload({text});
    persist::EncodeRecord(record, &wal);
  }
  std::ofstream out(dir + "/wal.log", std::ios::binary | std::ios::trunc);
  out.write(wal.data(), static_cast<std::streamsize>(wal.size()));
  if (!out) Die("catalog template: cannot write " + dir + "/wal.log");
}

// ---- reference pass -------------------------------------------------------

void FillExpected(Workload* workload) {
  oocq::server::ServiceOptions options = ServeOptions(nullptr);
  options.engine.enable_compilation = false;  // interpreted scan, walker
  options.engine.cache.enabled = false;       // every decision recomputed
  options.metrics = false;
  OocqService reference(options);
  if (workload->durable) {
    StatusOr<std::string> id = reference.CreateSession(workload->schema_text);
    if (!id.ok() || *id != SessionId()) Die("reference: session refused");
    for (const auto* defines :
         {&workload->snapshot_defines, &workload->wal_defines}) {
      for (const auto& [name, text] : *defines) {
        Status defined =
            reference.DefineQuery(SessionId(), name, JoinPayload({text}));
        if (!defined.ok()) Die("reference: " + defined.ToString());
      }
    }
  }
  // Registry mutations apply in stream order; the decisions they enable
  // are then computed once per distinct frame, on a few threads.
  std::vector<Op*> decisions;
  for (auto* ops : {&workload->setup, &workload->stream}) {
    for (Op& op : *ops) {
      Status applied = Status::Ok();
      switch (op.verb) {
        case Verb::kSession: {
          StatusOr<std::string> id =
              reference.CreateSession(JoinPayload(op.payload));
          if (!id.ok() || *id != SessionId()) Die("reference: session refused");
          continue;
        }
        case Verb::kDefine:
          applied = reference.DefineQuery(SessionId(), op.name,
                                          JoinPayload(op.payload));
          break;
        case Verb::kState:
          applied = reference.LoadState(SessionId(), JoinPayload(op.payload));
          break;
        default:
          decisions.push_back(&op);
          continue;
      }
      if (!applied.ok()) Die("reference: " + applied.ToString());
    }
  }
  // The first op of each distinct frame is computed; the rest share its
  // reply. Keys view the ops' own frames, which outlive the map.
  std::unordered_map<std::string_view, Op*> first;
  std::vector<Op*> distinct;
  for (Op* op : decisions) {
    if (first.emplace(op->frame, op).second) distinct.push_back(op);
  }
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next++; i < distinct.size(); i = next++) {
      Op& op = *distinct[i];
      Response response;
      if (op.reference) {
        response = reference.Execute(ToRequest(op));
        if (!response.status.ok()) {
          Die("reference refused " + op.command + ": " +
              response.status.ToString() + "\n" + op.frame);
        }
        if (op.constructed >= 0 &&
            response.verdict != (op.constructed == 1)) {
          Die("generator construction disagrees with the reference on:\n" +
              op.frame);
        }
      } else {
        response.verdict = op.constructed == 1;
      }
      op.expected =
          std::make_shared<const std::string>(RenderReply(op.verb, response));
    }
  };
  std::vector<std::thread> threads;
  for (uint32_t t = 1; t < options.max_in_flight; ++t) {
    threads.emplace_back(worker);
  }
  worker();
  for (std::thread& thread : threads) thread.join();
  for (Op* op : decisions) op->expected = first.at(op->frame)->expected;
}

// ---- spans ------------------------------------------------------------------

const char* LayerName(Layer layer) {
  static const char* const kNames[] = {
      "wire",        "handle",      "execute",      "parse_schema",
      "parse_query", "parse_state", "normalize",    "expand",
      "contain",     "union_contain", "minimize",   "satisfiable",
      "compile",     "compile_miss", "eval_forward", "eval_reverse",
      "log",         "recovery"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(Layer::kCount));
  return kNames[static_cast<size_t>(layer)];
}

int LayerLevel(Layer layer) {
  switch (layer) {
    case Layer::kWire:
      return 1;
    case Layer::kHandle:
      return 2;
    case Layer::kExecute:
      return 3;
    default:
      return 4;
  }
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool SpanLog::WriteTsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "request\tname\tlevel\tparent_level\tstart_ns\tend_ns\n");
  for (const Span& span : spans_) {
    const int level = LayerLevel(span.layer);
    if (span.request == kSetupRequest) {
      std::fprintf(out, "setup");
    } else {
      std::fprintf(out, "%u", span.request);
    }
    std::fprintf(out, "\t%s\t%d\t%d\t%lld\t%lld\n", LayerName(span.layer),
                 level, level - 1, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

// ---- level 1: the wire ----------------------------------------------------

Client::Client(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

bool Client::RoundTrip(const std::string& frame, std::string* reply) {
  if (fd_ < 0) return false;
  for (size_t sent = 0; sent < frame.size();) {
    ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  size_t scan = 0;
  while (true) {
    // Replies start with a status line, so the terminating "." line is
    // always preceded by a newline; payload lines starting with '.' are
    // dot-stuffed and never read as "\n.\n".
    const size_t end = buffer_.find("\n.\n", scan);
    if (end != std::string::npos) {
      reply->assign(buffer_, 0, end + 3);
      buffer_.erase(0, end + 3);
      return true;
    }
    scan = buffer_.size() >= 2 ? buffer_.size() - 2 : 0;
    char chunk[1 << 16];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

WireStack::WireStack(const Workload& workload, const std::string& data_dir)
    : service_(MakeService(workload.durable ? data_dir : "")) {
  server_ = std::make_unique<oocq::server::EventServer>(service_.get(),
                                                        WireOptions());
  Status started = server_->Start();
  if (!started.ok()) Die("event server: " + started.ToString());
  client_ = std::make_unique<Client>(server_->port());
}

WireStack::~WireStack() {
  client_.reset();
  server_->Stop();
  server_.reset();
  service_.reset();  // drains; a durable service takes its final snapshot
}

// ---- level 2: the protocol handler -----------------------------------------

HandlerStack::HandlerStack(const Workload& workload,
                           const std::string& data_dir)
    : service_(MakeService(workload.durable ? data_dir : "")),
      handler_(std::make_unique<oocq::server::ProtocolHandler>(
          service_.get())) {}

std::string HandlerStack::Handle(const Op& op) {
  const oocq::server::CommandLine command =
      oocq::server::ParseCommandLine(op.command);
  return handler_->Handle(command, op.payload).text;
}

// ---- level 3: the service ---------------------------------------------------

ServiceStack::ServiceStack(const Workload& workload,
                           const std::string& data_dir)
    : service_(MakeService(workload.durable ? data_dir : "")) {}

std::string ServiceStack::Apply(const Op& op) {
  switch (op.verb) {
    case Verb::kSession: {
      StatusOr<std::string> id =
          service_->CreateSession(JoinPayload(op.payload));
      return id.ok() ? "OK session=" + *id + "\n.\n"
                     : RenderStatus(id.status());
    }
    case Verb::kDefine: {
      Status defined = service_->DefineQuery(SessionId(), op.name,
                                             JoinPayload(op.payload));
      return defined.ok() ? "OK\n.\n" : RenderStatus(defined);
    }
    case Verb::kState: {
      Status loaded = service_->LoadState(SessionId(), JoinPayload(op.payload));
      return loaded.ok() ? "OK\n.\n" : RenderStatus(loaded);
    }
    default:
      return RenderReply(op.verb, service_->Execute(ToRequest(op)));
  }
}

// ---- level 4: the engine ----------------------------------------------------

EngineStack::EngineStack(const Workload& workload, const std::string& data_dir,
                         SpanLog* spans)
    : spans_(spans), options_(ServeOptions(nullptr)) {
  // OocqService::Run: the session-wide engine options, serial fan-out
  // propagated, and the session's own cache instead of a per-run one.
  engine_ = oocq::WithPropagatedParallelism(options_.engine);
  engine_.cache.enabled = false;
  if (workload.durable) {
    Status recovered = Recover(data_dir);
    if (!recovered.ok()) Die("engine recovery: " + recovered.ToString());
  }
}

template <typename F>
auto EngineStack::Timed(Layer layer, uint32_t request, F&& call) {
  const int64_t start = NowNs();
  auto result = call();
  if (spans_ != nullptr) spans_->Add(request, layer, start, NowNs());
  return result;
}

Status EngineStack::CreateSession(const std::string& schema_text,
                                  uint32_t request) {
  StatusOr<oocq::Schema> schema = Timed(Layer::kParseSchema, request, [&] {
    return oocq::ParseSchema(schema_text);
  });
  if (!schema.ok()) return schema.status();
  // OocqService::MakeSession's cache configuration.
  schema_ = std::make_unique<oocq::Schema>(*std::move(schema));
  oocq::ContainmentCache::Options cache_options;
  cache_options.containment = options_.engine.containment;
  cache_options.containment.enable_compilation =
      options_.engine.enable_compilation;
  cache_options.max_entries = options_.engine.cache.max_entries;
  cache_options.num_shards = options_.engine.cache.num_shards;
  if (options_.engine.cache.enabled) {
    cache_ = std::make_unique<oocq::ContainmentCache>(schema_.get(),
                                                      cache_options);
  }
  if (options_.engine.enable_compilation) {
    programs_ = std::make_unique<oocq::compile::ProgramCache>();
  }
  named_.clear();
  state_.reset();
  return Status::Ok();
}

Status EngineStack::Recover(const std::string& data_dir) {
  namespace persist = oocq::persist;
  const int64_t start = NowNs();
  StatusOr<std::unique_ptr<persist::DurableCatalog>> opened =
      persist::DurableCatalog::Open(CatalogOptions(data_dir));
  if (!opened.ok()) return opened.status();
  catalog_ = *std::move(opened);
  // OocqService::RestoreFromCatalog → ApplyRecord, one session.
  for (const persist::Record& record : catalog_->recovered()) {
    switch (record.type) {
      case persist::RecordType::kCreateSession: {
        Status created = CreateSession(record.text, kSetupRequest);
        if (!created.ok()) return created;
        break;
      }
      case persist::RecordType::kDefineQuery: {
        StatusOr<ConjunctiveQuery> query =
            oocq::ParseQuery(*schema_, record.text);
        if (!query.ok()) return query.status();
        named_.insert_or_assign(record.name, *std::move(query));
        break;
      }
      case persist::RecordType::kSetState: {
        StatusOr<oocq::State> state =
            oocq::ParseState(schema_.get(), record.text);
        if (!state.ok()) return state.status();
        state_.emplace(*std::move(state));
        break;
      }
      case persist::RecordType::kCacheEntry:
        if (cache_ != nullptr) cache_->Preload(record.text, record.verdict);
        break;
      case persist::RecordType::kDropSession:
        break;
    }
  }
  if (spans_ != nullptr) {
    spans_->Add(kSetupRequest, Layer::kRecovery, start, NowNs());
  }
  return Status::Ok();
}

std::vector<oocq::persist::Record> EngineStack::ExportCache() const {
  std::vector<oocq::persist::Record> records;
  if (cache_ == nullptr) return records;
  for (auto& [key, verdict] : cache_->Export(0)) {
    oocq::persist::Record entry;
    entry.type = oocq::persist::RecordType::kCacheEntry;
    entry.session_id = SessionId();
    entry.text = std::move(key);
    entry.verdict = verdict;
    records.push_back(std::move(entry));
  }
  return records;
}

StatusOr<ConjunctiveQuery> EngineStack::Resolve(const std::string& text,
                                                uint32_t request) {
  if (!text.empty() && text[0] == '@') {
    auto it = named_.find(text.substr(1));
    if (it == named_.end()) {
      return Status::NotFound("no registered query '" + text.substr(1) + "'");
    }
    return it->second;
  }
  return Timed(Layer::kParseQuery, request,
               [&] { return oocq::ParseQuery(*schema_, text); });
}

StatusOr<UnionQuery> EngineStack::Expand(const ConjunctiveQuery& query,
                                         uint32_t request) {
  StatusOr<ConjunctiveQuery> well_formed =
      Timed(Layer::kNormalize, request, [&] {
        return oocq::NormalizeToWellFormed(*schema_, query);
      });
  if (!well_formed.ok()) return well_formed.status();
  return Timed(Layer::kExpand, request, [&] {
    return oocq::ExpandToTerminalQueries(*schema_, *well_formed,
                                         engine_.expansion);
  });
}

StatusOr<bool> EngineStack::ContainedPipeline(const ConjunctiveQuery& q1,
                                              const ConjunctiveQuery& q2,
                                              uint32_t request) {
  StatusOr<UnionQuery> m = Expand(q1, request);
  if (!m.ok()) return m.status();
  StatusOr<UnionQuery> n = Expand(q2, request);
  if (!n.ok()) return n.status();
  if (n->disjuncts.size() == 1) {
    for (const ConjunctiveQuery& qi : m->disjuncts) {
      StatusOr<bool> contained = Timed(Layer::kContain, request, [&] {
        return cache_ != nullptr
                   ? cache_->Contained(qi, n->disjuncts[0], nullptr,
                                       engine_.containment.cancel,
                                       engine_.containment.budget)
                   : oocq::Contained(*schema_, qi, n->disjuncts[0],
                                     engine_.containment);
      });
      if (!contained.ok() || !*contained) return contained;
    }
    return true;
  }
  if (n->disjuncts.empty()) return m->disjuncts.empty();
  return Timed(Layer::kUnionContain, request, [&] {
    return oocq::UnionContained(*schema_, *m, *n, engine_.containment,
                                nullptr, cache_.get());
  });
}

std::string EngineStack::Apply(const Op& op, uint32_t request) {
  switch (op.verb) {
    case Verb::kSession: {
      Status created = CreateSession(JoinPayload(op.payload), request);
      return created.ok() ? "OK session=" + SessionId() + "\n.\n"
                          : RenderStatus(created);
    }
    case Verb::kDefine: {
      const std::string text = JoinPayload(op.payload);
      StatusOr<ConjunctiveQuery> query =
          Timed(Layer::kParseQuery, request,
                [&] { return oocq::ParseQuery(*schema_, text); });
      if (!query.ok()) return RenderStatus(query.status());
      named_.insert_or_assign(op.name, *std::move(query));
      if (catalog_ != nullptr) {
        oocq::persist::Record record;
        record.type = oocq::persist::RecordType::kDefineQuery;
        record.session_id = SessionId();
        record.name = op.name;
        record.text = text;
        std::shared_lock<std::shared_mutex> guard = catalog_->MutationGuard();
        Status logged = Timed(Layer::kLog, request,
                              [&] { return catalog_->Log(record); });
        if (!logged.ok()) return RenderStatus(logged);
      }
      return "OK\n.\n";
    }
    case Verb::kState: {
      const std::string text = JoinPayload(op.payload);
      StatusOr<oocq::State> state = Timed(Layer::kParseState, request, [&] {
        return oocq::ParseState(schema_.get(), text);
      });
      if (!state.ok()) return RenderStatus(state.status());
      state_.emplace(*std::move(state));
      return "OK\n.\n";
    }
    default:
      break;
  }

  const Request typed = ToRequest(op);
  Response response;
  switch (op.verb) {
    case Verb::kMinimize: {
      StatusOr<ConjunctiveQuery> query = Resolve(typed.query, request);
      if (!query.ok()) return RenderStatus(query.status());
      StatusOr<ConjunctiveQuery> well_formed =
          Timed(Layer::kNormalize, request, [&] {
            return oocq::NormalizeToWellFormed(*schema_, *query);
          });
      if (!well_formed.ok()) return RenderStatus(well_formed.status());
      if (!well_formed->IsPositive()) {
        return RenderStatus(Status::FailedPrecondition(
            "wirebench sends positive MINIMIZE queries only"));
      }
      StatusOr<oocq::MinimizationReport> report =
          Timed(Layer::kMinimize, request, [&] {
            return oocq::MinimizePositiveQuery(*schema_, *well_formed, engine_,
                                               cache_.get());
          });
      if (!report.ok()) return RenderStatus(report.status());
      response.verdict = true;
      response.body = oocq::UnionQueryToString(*schema_, report->minimized);
      break;
    }
    case Verb::kContain:
    case Verb::kEquiv: {
      StatusOr<ConjunctiveQuery> q1 = Resolve(typed.query, request);
      StatusOr<ConjunctiveQuery> q2 = Resolve(typed.query2, request);
      if (!q1.ok() || !q2.ok()) {
        return RenderStatus(!q1.ok() ? q1.status() : q2.status());
      }
      StatusOr<bool> forward = ContainedPipeline(*q1, *q2, request);
      if (!forward.ok()) return RenderStatus(forward.status());
      response.verdict = *forward;
      if (op.verb == Verb::kEquiv && *forward) {
        StatusOr<bool> backward = ContainedPipeline(*q2, *q1, request);
        if (!backward.ok()) return RenderStatus(backward.status());
        response.verdict = *backward;
      }
      break;
    }
    case Verb::kUContain: {
      UnionQuery m, n;
      for (const auto* side : {&typed.union_m, &typed.union_n}) {
        UnionQuery& out = side == &typed.union_m ? m : n;
        for (const std::string& text : *side) {
          StatusOr<ConjunctiveQuery> query = Resolve(text, request);
          if (!query.ok()) return RenderStatus(query.status());
          StatusOr<UnionQuery> expanded = Expand(*query, request);
          if (!expanded.ok()) return RenderStatus(expanded.status());
          for (ConjunctiveQuery& d : expanded->disjuncts) {
            out.disjuncts.push_back(std::move(d));
          }
        }
      }
      StatusOr<bool> verdict = Timed(Layer::kUnionContain, request, [&] {
        return oocq::UnionContained(*schema_, m, n, engine_.containment,
                                    nullptr, cache_.get());
      });
      if (!verdict.ok()) return RenderStatus(verdict.status());
      response.verdict = *verdict;
      break;
    }
    case Verb::kSat: {
      StatusOr<ConjunctiveQuery> query = Resolve(typed.query, request);
      if (!query.ok()) return RenderStatus(query.status());
      StatusOr<ConjunctiveQuery> well_formed =
          Timed(Layer::kNormalize, request, [&] {
            return oocq::NormalizeToWellFormed(*schema_, *query);
          });
      if (!well_formed.ok()) return RenderStatus(well_formed.status());
      if (!well_formed->IsTerminal(*schema_)) {
        return RenderStatus(Status::FailedPrecondition(
            "satisfiable requires a terminal query; minimize first"));
      }
      oocq::SatisfiabilityResult result =
          Timed(Layer::kSatisfiable, request, [&] {
            return oocq::CheckSatisfiable(*schema_, *well_formed);
          });
      response.verdict = result.satisfiable;
      if (!result.satisfiable) response.body = result.reason;
      break;
    }
    case Verb::kEval: {
      if (!state_.has_value()) {
        return RenderStatus(Status::FailedPrecondition(
            "session has no state loaded; send one first"));
      }
      StatusOr<ConjunctiveQuery> query = Resolve(typed.query, request);
      if (!query.ok()) return RenderStatus(query.status());
      StatusOr<ConjunctiveQuery> well_formed =
          Timed(Layer::kNormalize, request, [&] {
            return oocq::NormalizeToWellFormed(*schema_, *query);
          });
      if (!well_formed.ok()) return RenderStatus(well_formed.status());
      oocq::EvalOptions eval_options;
      eval_options.enable_compilation = engine_.enable_compilation;
      if (eval_options.enable_compilation && programs_ != nullptr) {
        const size_t before = programs_->size();
        const int64_t start = NowNs();
        eval_options.program = programs_->GetOrCompile(*schema_, *well_formed);
        if (spans_ != nullptr) {
          spans_->Add(request,
                      programs_->size() > before ? Layer::kCompileMiss
                                                 : Layer::kCompile,
                      start, NowNs());
        }
        if (eval_options.program == nullptr) {
          eval_options.enable_compilation = false;
        }
      }
      StatusOr<std::vector<oocq::Oid>> answers = Timed(
          op.population == "reverse" ? Layer::kEvalReverse
                                     : Layer::kEvalForward,
          request,
          [&] { return oocq::Evaluate(*state_, *well_formed, eval_options); });
      if (!answers.ok()) return RenderStatus(answers.status());
      response.verdict = !answers->empty();
      for (oocq::Oid oid : *answers) {
        response.body += state_->DebugString(oid);
        response.body += '\n';
      }
      break;
    }
    default:
      return RenderStatus(Status::Internal("unknown verb"));
  }
  return RenderReply(op.verb, response);
}

}  // namespace wirebench
