#include "server/protocol.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "persist/wal.h"
#include "replicate/wire.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace oocq::server {

namespace {

std::string JoinLines(const std::vector<std::string>& lines, size_t begin,
                      size_t end) {
  std::string out;
  for (size_t i = begin; i < end && i < lines.size(); ++i) {
    out += lines[i];
    out += '\n';
  }
  return out;
}

/// Appends `body` as response payload lines. A payload line that is
/// exactly "." would terminate the frame early, so it is dot-stuffed to
/// ".." (clients undo this; docs/server.md).
void AppendPayload(const std::string& body, std::string* out) {
  std::string line;
  size_t start = 0;
  while (start <= body.size()) {
    size_t nl = body.find('\n', start);
    if (nl == std::string::npos) {
      line = body.substr(start);
      start = body.size() + 1;
      if (line.empty()) break;  // no trailing partial line
    } else {
      line = body.substr(start, nl - start);
      start = nl + 1;
    }
    if (!line.empty() && line[0] == '.') out->append(1, '.');
    out->append(line);
    out->append(1, '\n');
  }
}

ProtocolReply OkReply(const std::string& fields, const std::string& body = "") {
  ProtocolReply reply;
  reply.text = fields.empty() ? "OK\n" : "OK " + fields + "\n";
  AppendPayload(body, &reply.text);
  reply.text += ".\n";
  return reply;
}

ProtocolReply ErrReply(const Status& status) {
  ProtocolReply reply;
  // Keep the status line single-line: newlines in engine messages would
  // break framing.
  std::string message = status.message();
  std::replace(message.begin(), message.end(), '\n', ' ');
  reply.text = "ERR ";
  reply.text += StatusCodeToString(status.code());
  reply.text += ' ';
  reply.text += message;
  reply.text += "\n.\n";
  return reply;
}

Status BadRequest(const std::string& what) {
  return Status::InvalidArgument(what);
}

uint64_t ParamUint(const CommandLine& command, const std::string& key) {
  const std::string* value = command.Param(key);
  if (value == nullptr) return 0;
  return std::strtoull(value->c_str(), nullptr, 10);
}

std::string ParamString(const CommandLine& command, const std::string& key) {
  const std::string* value = command.Param(key);
  return value == nullptr ? std::string() : *value;
}

void FillCommonRequestFields(const CommandLine& command, Request* request) {
  request->deadline_ms = ParamUint(command, "deadline_ms");
  if (const std::string* id = command.Param("id")) request->request_id = *id;
  // The wire-level `ID <token>` prefix wins over a legacy id= param.
  if (!command.request_id.empty()) request->request_id = command.request_id;
}

/// Echoes the request id on the reply status line: "OK id=<rid> ..." /
/// "ERR <CODE> id=<rid> <message>". The insertion points keep existing
/// parsers working — clients read the verdict fields by name and the ERR
/// code as the second token, both unmoved.
void TagReply(const std::string& rid, ProtocolReply* reply) {
  std::string& text = reply->text;
  if (text.rfind("OK", 0) == 0) {
    text.insert(2, " id=" + rid);
  } else if (text.rfind("ERR ", 0) == 0) {
    size_t code_end = text.find_first_of(" \n", 4);
    if (code_end == std::string::npos) code_end = text.size();
    text.insert(code_end, " id=" + rid);
  }
}

}  // namespace

const std::string* CommandLine::Param(const std::string& key) const {
  for (const auto& [k, v] : params) {
    if (k == key) return &v;
  }
  return nullptr;
}

CommandLine ParseCommandLine(const std::string& line) {
  CommandLine command;
  size_t i = 0;
  auto skip_spaces = [&] {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])))
      ++i;
  };
  skip_spaces();
  // Token roles: the first token is the verb — unless it is the `ID`
  // prefix, in which case the next token is the request id and the verb
  // follows it (`ID r7 CONTAIN s1` ≡ `CONTAIN s1` tagged r7).
  enum class Expect { kVerb, kRequestId, kRest };
  Expect expect = Expect::kVerb;
  while (i < line.size()) {
    size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    std::string token = line.substr(start, i - start);
    skip_spaces();
    if (expect == Expect::kRequestId) {
      command.request_id = std::move(token);
      expect = Expect::kVerb;
      continue;
    }
    if (expect == Expect::kVerb) {
      for (char& c : token) {
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      }
      if (token == "ID" && command.request_id.empty()) {
        expect = Expect::kRequestId;
        continue;
      }
      command.verb = std::move(token);
      expect = Expect::kRest;
      continue;
    }
    size_t eq = token.find('=');
    if (eq != std::string::npos && eq > 0) {
      command.params.emplace_back(token.substr(0, eq), token.substr(eq + 1));
    } else {
      command.args.push_back(std::move(token));
    }
  }
  return command;
}

bool VerbHasPayload(const std::string& verb) {
  // SESSION NEW's payload-ness depends on its subcommand, but the NEW/DROP
  // split is resolved by the first argument, which the framing layer has
  // by the time it needs to decide — see ConnectionHandler::Next.
  return verb == "MINIMIZE" || verb == "CONTAIN" || verb == "EQUIV" ||
         verb == "UCONTAIN" || verb == "SAT" || verb == "EVAL" ||
         verb == "EXPLAIN" || verb == "BATCH" || verb == "DEFINE" ||
         verb == "STATE";
}

bool ConnectionHandler::NextLine(std::string* line, bool* violation) {
  size_t nl = buffer_.find('\n', scan_from_);
  if (nl == std::string::npos) {
    if (buffer_.size() > kMaxLineBytes) {
      *violation = true;
      return false;
    }
    scan_from_ = buffer_.size();
    return false;
  }
  *line = buffer_.substr(0, nl);
  buffer_.erase(0, nl + 1);
  scan_from_ = 0;
  if (!line->empty() && line->back() == '\r') line->pop_back();
  return true;
}

ConnectionHandler::FrameResult ConnectionHandler::Next(
    CommandLine* command, std::vector<std::string>* payload) {
  if (violated_) return FrameResult::kViolation;
  std::string line;
  bool violation = false;
  while (true) {
    if (!in_payload_) {
      do {
        if (!NextLine(&line, &violation)) {
          violated_ = violation;
          return violation ? FrameResult::kViolation : FrameResult::kNeedMore;
        }
      } while (line.empty());  // blank lines between requests are noise
      pending_command_ = ParseCommandLine(line);
      pending_payload_.clear();
      bool has_payload =
          VerbHasPayload(pending_command_.verb) ||
          (pending_command_.verb == "SESSION" &&
           !pending_command_.args.empty() &&
           (pending_command_.args[0] == "NEW" ||
            pending_command_.args[0] == "new"));
      if (!has_payload) {
        *command = std::move(pending_command_);
        payload->clear();
        return FrameResult::kRequest;
      }
      in_payload_ = true;
    }
    while (NextLine(&line, &violation)) {
      if (line == ".") {
        in_payload_ = false;
        *command = std::move(pending_command_);
        *payload = std::move(pending_payload_);
        pending_payload_.clear();
        return FrameResult::kRequest;
      }
      // Undo dot-stuffing so payload lines may begin with '.'.
      if (!line.empty() && line[0] == '.') line.erase(0, 1);
      pending_payload_.push_back(std::move(line));
    }
    violated_ = violation;
    return violation ? FrameResult::kViolation : FrameResult::kNeedMore;
  }
}

ProtocolReply ShedReply(const CommandLine& command, const std::string& why) {
  ProtocolReply reply = ErrReply(Status::Unavailable(why));
  if (!command.request_id.empty()) TagReply(command.request_id, &reply);
  return reply;
}

ProtocolReply ProtocolHandler::Handle(const CommandLine& command,
                                      const std::vector<std::string>& payload) {
  // The effective request id: the wire `ID` prefix, else a legacy id=
  // param. Either is annotated onto this span (and, through
  // Request::request_id, onto the service/engine spans); only the `ID`
  // prefix is echoed on the reply status line — clients that predate the
  // prefix keep getting byte-identical replies for id= params.
  std::string rid = command.request_id;
  if (rid.empty()) {
    if (const std::string* id = command.Param("id")) rid = *id;
  }
  OOCQ_TRACE_SPAN(span, "HandleRequest");
  span.Arg("verb", command.verb.empty() ? "(none)" : command.verb);
  if (!rid.empty()) span.Arg("id", rid);
  ProtocolReply reply = HandleInner(command, payload);
  if (span.recording()) {
    span.Arg("bytes", static_cast<uint64_t>(reply.text.size()));
  }
  if (!command.request_id.empty()) TagReply(command.request_id, &reply);
  return reply;
}

ProtocolReply ProtocolHandler::HandleInner(
    const CommandLine& command, const std::vector<std::string>& payload) {
  const std::string& verb = command.verb;

  if (verb.empty() && !command.request_id.empty()) {
    return ErrReply(BadRequest("ID prefix needs a command after the token"));
  }
  if (verb == "PING") return OkReply("");
  if (verb == "HELLO") {
    // Handshake + capability discovery (docs/server.md): the client may
    // announce the protocol version it speaks; a version this server
    // does not know is refused up front instead of failing verb by
    // verb. HELLO also subsumes the old PING-as-liveness convention —
    // the reply carries the same liveness signal plus the server's
    // capabilities — but bare PING keeps working for old clients.
    if (!command.args.empty()) {
      char* end = nullptr;
      long requested = std::strtol(command.args[0].c_str(), &end, 10);
      if (end == command.args[0].c_str() || *end != '\0' || requested < 1) {
        return ErrReply(
            BadRequest("HELLO takes a numeric protocol version"));
      }
      if (requested > kProtocolVersion) {
        return ErrReply(Status::FailedPrecondition(
            "protocol version " + command.args[0] +
            " not supported; this server speaks " +
            std::to_string(kProtocolVersion)));
      }
    }
    // The caps vocabulary is enumerated in docs/server.md#capabilities;
    // `replication` advertises the REPL verb family (docs/replication.md);
    // `fencing` advertises term-stamped replies and the REPL DEMOTE verb.
    return OkReply(
        "protocol=" + std::to_string(kProtocolVersion) +
        " server=oocq max_line_bytes=" + std::to_string(kMaxLineBytes) +
        " caps=sessions,define,state,batch,deadlines,health,explain,"
        "ucontain,stats,request_ids,replication,fencing" +
        " draining=" + std::string(service_->draining() ? "1" : "0") +
        " readonly=" + std::string(service_->read_only() ? "1" : "0") +
        " term=" + std::to_string(service_->term()));
  }
  if (verb == "QUIT") {
    ProtocolReply reply = OkReply("");
    reply.close = true;
    return reply;
  }
  if (verb == "STATS") {
    // Machine-readable exposition (docs/observability.md#stats):
    // Prometheus-style text with counters and p50/p90/p99 summaries.
    return OkReply("", service_->StatsText());
  }
  if (verb == "HEALTH") {
    // Liveness + progress snapshot for operators and watchdogs: a server
    // whose pending stays > 0 while completed stops advancing has a
    // wedged worker pool (docs/robustness.md). Renders the same
    // ServiceHealth snapshot STATS exposes, in the PR 5 wire format.
    const ServiceHealth health = service_->CollectHealth();
    // Role/term ride on the fields line for every server (the router's
    // prober keys on them); new fields append after sessions= — parsers
    // since PR 5 anchor on the "OK pending=" prefix.
    std::string fields =
        "pending=" + std::to_string(health.pending) +
        " completed=" + std::to_string(health.completed) +
        " draining=" + std::string(health.draining ? "1" : "0") +
        " sessions=" + std::to_string(health.sessions) +
        " role=" + std::string(service_->read_only() ? "follower" : "primary") +
        " readonly=" + std::string(service_->read_only() ? "1" : "0") +
        " fenced=" + std::string(service_->fenced() ? "1" : "0") +
        " term=" + std::to_string(service_->term());
    std::string body;
    if (health.has_budget) {
      body = "budget: resident_bytes=" +
             std::to_string(health.resident_bytes) + "/" +
             std::to_string(health.max_resident_bytes) +
             " work_units=" + std::to_string(health.work_units) + "/" +
             std::to_string(health.max_work_units) +
             " disjuncts=" + std::to_string(health.disjuncts) + "/" +
             std::to_string(health.max_disjuncts) +
             " exhausted=" + std::to_string(health.exhausted) + "\n";
    }
    if (health.repl.present) {
      // The replication satellite of the same snapshot: role, stream
      // liveness and lag (docs/replication.md#telemetry). Only present
      // on nodes actually replicating, so pre-replication parsers see
      // byte-identical output.
      body += "repl: role=" + health.repl.role +
              " connected=" + std::string(health.repl.connected ? "1" : "0") +
              " lag_records=" + std::to_string(health.repl.lag_records) +
              " applied_records=" +
              std::to_string(health.repl.applied_records) +
              " shipped_bytes=" + std::to_string(health.repl.shipped_bytes) +
              " epoch=" + std::to_string(health.repl.epoch) +
              " term=" + std::to_string(health.repl.term) + "\n";
    }
    return OkReply(fields, body);
  }
  if (verb == "REPL") return HandleRepl(command);
  if (verb == "SESSION") {
    if (command.args.empty()) {
      return ErrReply(BadRequest("SESSION needs NEW or DROP"));
    }
    std::string sub = command.args[0];
    for (char& c : sub) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    if (sub == "NEW") {
      StatusOr<std::string> id =
          service_->CreateSession(JoinLines(payload, 0, payload.size()));
      if (!id.ok()) return ErrReply(id.status());
      return OkReply("session=" + *id);
    }
    if (sub == "DROP" && command.args.size() == 2) {
      Status dropped = service_->DropSession(command.args[1]);
      if (!dropped.ok()) return ErrReply(dropped);
      return OkReply("");
    }
    return ErrReply(BadRequest("usage: SESSION NEW | SESSION DROP <id>"));
  }
  if (verb == "DEFINE") {
    if (command.args.size() != 2 || payload.empty()) {
      return ErrReply(
          BadRequest("usage: DEFINE <session> <name> + query payload"));
    }
    Status defined = service_->DefineQuery(
        command.args[0], command.args[1], JoinLines(payload, 0, payload.size()));
    if (!defined.ok()) return ErrReply(defined);
    return OkReply("");
  }
  if (verb == "STATE") {
    if (command.args.size() != 1) {
      return ErrReply(BadRequest("usage: STATE <session> + state payload"));
    }
    Status loaded = service_->LoadState(command.args[0],
                                        JoinLines(payload, 0, payload.size()));
    if (!loaded.ok()) return ErrReply(loaded);
    return OkReply("");
  }

  // The decision verbs map 1:1 onto the typed service requests.
  Request request;
  if (command.args.empty()) {
    return ErrReply(BadRequest(verb + " needs a session id"));
  }
  request.session_id = command.args[0];
  FillCommonRequestFields(command, &request);

  auto run_unary = [&](RequestKind kind) -> ProtocolReply {
    if (payload.empty()) {
      return ErrReply(BadRequest(verb + " needs a query payload line"));
    }
    request.kind = kind;
    request.query = JoinLines(payload, 0, payload.size());
    Response response = service_->Execute(request);
    if (!response.status.ok()) return ErrReply(response.status);
    switch (kind) {
      case RequestKind::kMinimize:
        return OkReply("exact=" + std::string(response.verdict ? "1" : "0"),
                       response.body);
      case RequestKind::kSatisfiable:
        return OkReply(
            "satisfiable=" + std::string(response.verdict ? "1" : "0"),
            response.body);
      case RequestKind::kEvaluate:
        return OkReply("nonempty=" + std::string(response.verdict ? "1" : "0"),
                       response.body);
      default:
        return ErrReply(Status::Internal("bad unary kind"));
    }
  };
  auto run_binary = [&](RequestKind kind,
                        const char* field) -> ProtocolReply {
    if (payload.size() != 2) {
      return ErrReply(
          BadRequest(verb + " needs exactly two payload lines (Q1, Q2)"));
    }
    request.kind = kind;
    request.query = payload[0];
    request.query2 = payload[1];
    Response response = service_->Execute(request);
    if (!response.status.ok()) return ErrReply(response.status);
    return OkReply(
        std::string(field) + "=" + (response.verdict ? "1" : "0"),
        response.body);
  };

  if (verb == "MINIMIZE") return run_unary(RequestKind::kMinimize);
  if (verb == "SAT") return run_unary(RequestKind::kSatisfiable);
  if (verb == "EVAL") return run_unary(RequestKind::kEvaluate);
  if (verb == "CONTAIN") return run_binary(RequestKind::kContained, "contained");
  if (verb == "EQUIV") return run_binary(RequestKind::kEquivalent, "equivalent");
  if (verb == "EXPLAIN") return run_binary(RequestKind::kExplain, "contained");
  if (verb == "UCONTAIN") {
    // Payload: disjuncts of M, a "--" separator line, disjuncts of N.
    request.kind = RequestKind::kUnionContained;
    bool in_n = false;
    for (const std::string& line : payload) {
      if (line == "--") {
        in_n = true;
        continue;
      }
      (in_n ? request.union_n : request.union_m).push_back(line);
    }
    if (!in_n) {
      return ErrReply(BadRequest("UCONTAIN payload needs a '--' separator"));
    }
    Response response = service_->Execute(request);
    if (!response.status.ok()) return ErrReply(response.status);
    return OkReply("contained=" + std::string(response.verdict ? "1" : "0"));
  }
  if (verb == "BATCH") {
    // Each payload line is `KIND <TAB> q1 [<TAB> q2]` with KIND one of
    // CONTAIN | EQUIV | SAT. The batch fans out on the service pool.
    std::vector<Request> batch;
    for (const std::string& line : payload) {
      std::vector<std::string> fields;
      size_t start = 0;
      while (true) {
        size_t tab = line.find('\t', start);
        fields.push_back(line.substr(start, tab - start));
        if (tab == std::string::npos) break;
        start = tab + 1;
      }
      Request item = request;  // session, deadline, id inherited
      if (fields[0] == "CONTAIN" && fields.size() == 3) {
        item.kind = RequestKind::kContained;
        item.query = fields[1];
        item.query2 = fields[2];
      } else if (fields[0] == "EQUIV" && fields.size() == 3) {
        item.kind = RequestKind::kEquivalent;
        item.query = fields[1];
        item.query2 = fields[2];
      } else if (fields[0] == "SAT" && fields.size() == 2) {
        item.kind = RequestKind::kSatisfiable;
        item.query = fields[1];
      } else {
        return ErrReply(BadRequest(
            "BATCH lines are 'CONTAIN\\tQ1\\tQ2', 'EQUIV\\tQ1\\tQ2' or "
            "'SAT\\tQ'"));
      }
      batch.push_back(std::move(item));
    }
    std::vector<Response> responses = service_->ExecuteBatch(batch);
    // One verdict character per request, '-' for per-item failures; the
    // worst retryable status is surfaced in the OK line so clients can
    // retry the shed subset.
    std::string verdicts;
    uint64_t shed = 0;
    for (const Response& response : responses) {
      if (response.status.ok()) {
        verdicts += response.verdict ? '1' : '0';
      } else {
        verdicts += '-';
        if (IsRetryable(response.status.code())) ++shed;
      }
    }
    return OkReply("n=" + std::to_string(responses.size()) +
                       " retryable=" + std::to_string(shed),
                   verdicts + "\n");
  }

  return ErrReply(BadRequest("unknown verb '" + verb + "'"));
}

ProtocolReply ProtocolHandler::HandleRepl(const CommandLine& command) {
  if (command.args.empty()) {
    return ErrReply(
        BadRequest("REPL needs SUBSCRIBE, STATE, STATUS, PROMOTE or DEMOTE"));
  }
  std::string sub = command.args[0];
  for (char& c : sub) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  persist::DurableCatalog* catalog = service_->options().catalog.get();
  persist::WriteAheadLog* wal =
      catalog != nullptr ? catalog->wal() : nullptr;

  if (sub == "PROMOTE") {
    // Idempotent: promoting a primary answers OK without a transition,
    // so a retrying client converges (docs/replication.md#promotion).
    Status promoted = service_->Promote();
    if (!promoted.ok()) return ErrReply(promoted);
    return OkReply("role=primary term=" + std::to_string(service_->term()));
  }
  if (sub == "DEMOTE") {
    // Fence this node: the caller (a router's fencing sweep, an operator,
    // a peer) proved a primary at <term> exists. `primary=HOST:PORT`
    // names the successor to rejoin as a follower of; it is mandatory
    // for a tied term (deterministic dueling tie-break), optional when
    // the observed term is strictly higher.
    if (command.args.size() != 2) {
      return ErrReply(
          BadRequest("usage: REPL DEMOTE <term> [primary=HOST:PORT]"));
    }
    const uint64_t observed =
        std::strtoull(command.args[1].c_str(), nullptr, 10);
    if (observed == 0) {
      return ErrReply(BadRequest("REPL DEMOTE takes a numeric term >= 1"));
    }
    Status demoted = service_->Demote(observed, ParamString(command, "primary"));
    if (!demoted.ok()) return ErrReply(demoted);
    return OkReply("role=follower term=" + std::to_string(service_->term()));
  }
  if (sub == "STATUS") {
    const ServiceHealth health = service_->CollectHealth();
    std::string fields =
        std::string("role=") +
        (service_->read_only() ? "follower" : "primary") +
        " term=" + std::to_string(service_->term()) +
        " fenced=" + std::string(service_->fenced() ? "1" : "0");
    if (wal != nullptr) {
      fields += " epoch=" + std::to_string(wal->epoch()) +
                " tip=" + std::to_string(wal->synced_bytes()) +
                " tip_seq=" + std::to_string(wal->synced_seq());
    }
    if (health.repl.present) {
      fields += " connected=" +
                std::string(health.repl.connected ? "1" : "0") +
                " lag_records=" + std::to_string(health.repl.lag_records) +
                " applied_records=" +
                std::to_string(health.repl.applied_records);
    }
    return OkReply(fields);
  }

  // The stream verbs source from the WAL: a catalog is mandatory.
  if (wal == nullptr) {
    return ErrReply(Status::FailedPrecondition(
        "replication needs a durable catalog; start with --data-dir"));
  }
  if (Status chaos = Failpoints::Check("repl/ship"); !chaos.ok()) {
    return ErrReply(chaos);
  }

  if (sub == "STATE") {
    // Full resync payload: a registry dump cut at an exact WAL position
    // under the exclusive mutation gate, so (dump + frames past offset)
    // reconstructs this node exactly.
    StatusOr<persist::DurableCatalog::PositionedDump> dump =
        catalog->DumpWithPosition();
    if (!dump.ok()) return ErrReply(dump.status());
    std::string body;
    for (const persist::Record& record : dump->records) {
      body += replicate::EncodeDumpRecord(record);
      body += '\n';
    }
    MetricAdd("repl/state_dumps", 1);
    return OkReply("epoch=" + std::to_string(dump->epoch) +
                       " offset=" + std::to_string(dump->offset) +
                       " seq=" + std::to_string(dump->seq) +
                       " n=" + std::to_string(dump->records.size()) +
                       " term=" + std::to_string(service_->term()),
                   body);
  }
  if (sub == "SUBSCRIBE") {
    if (command.args.size() != 3) {
      return ErrReply(BadRequest(
          "usage: REPL SUBSCRIBE <epoch> <offset> [wait_ms=N] [max_bytes=N] "
          "[term=N]"));
    }
    const uint64_t want_epoch =
        std::strtoull(command.args[1].c_str(), nullptr, 10);
    const uint64_t offset =
        std::strtoull(command.args[2].c_str(), nullptr, 10);
    // The long-poll window is capped so a subscriber can never park a
    // server thread indefinitely; an empty reply just re-subscribes.
    const uint64_t wait_ms = std::min<uint64_t>(
        ParamUint(command, "wait_ms"), 10000);
    const uint64_t max_bytes = ParamUint(command, "max_bytes");
    MetricAdd("repl/subscribes", 1);
    // The fencing handshake: a subscriber carrying a higher term proves
    // a newer primary was elected while we were partitioned — fence
    // *before* shipping a single frame of our forked history.
    const uint64_t subscriber_term = ParamUint(command, "term");
    if (subscriber_term > service_->term()) {
      (void)service_->Demote(subscriber_term, "");
      return ErrReply(Status::FailedPrecondition(
          "fenced term=" + std::to_string(service_->term()) +
          ": subscriber is ahead of this node; resync from the current "
          "primary"));
    }
    if (subscriber_term != 0 && subscriber_term < service_->term()) {
      return ErrReply(Status::FailedPrecondition(
          "stale subscriber term=" + std::to_string(subscriber_term) +
          "; this primary is at term " + std::to_string(service_->term()) +
          "; resync required"));
    }
    if (wal->epoch() != want_epoch) {
      return ErrReply(Status::FailedPrecondition(
          "wal epoch is " + std::to_string(wal->epoch()) + ", not " +
          std::to_string(want_epoch) + " (log compacted); resync required"));
    }
    if (wait_ms > 0 && offset >= wal->synced_bytes()) {
      // Parks until the next group commit lands (the fsync completion
      // notifies), the log compacts, or the window expires — batches
      // ship the moment they become durable, not a poll interval later.
      (void)wal->WaitDurable(offset, static_cast<uint32_t>(wait_ms));
    }
    StatusOr<persist::WriteAheadLog::TailBatch> batch =
        wal->ReadDurableRange(offset, max_bytes);
    if (!batch.ok()) return ErrReply(batch.status());
    if (batch->epoch != want_epoch) {
      return ErrReply(Status::FailedPrecondition(
          "wal compacted during the poll; resync required"));
    }
    std::string body;
    uint64_t frame_bytes = 0;
    for (const persist::WriteAheadLog::TailRecord& record : batch->records) {
      body += replicate::EncodeShippedRecord(record.offset, record.frame);
      body += '\n';
      frame_bytes += record.frame.size();
    }
    MetricAdd("repl/ship_records", batch->records.size());
    MetricAdd("repl/ship_bytes", frame_bytes);
    return OkReply("next=" + std::to_string(batch->next_offset) +
                       " epoch=" + std::to_string(batch->epoch) +
                       " tip=" + std::to_string(batch->durable_bytes) +
                       " tip_seq=" + std::to_string(batch->durable_seq) +
                       " n=" + std::to_string(batch->records.size()) +
                       " term=" + std::to_string(service_->term()),
                   body);
  }
  return ErrReply(
      BadRequest("REPL needs SUBSCRIBE, STATE, STATUS, PROMOTE or DEMOTE"));
}

}  // namespace oocq::server
