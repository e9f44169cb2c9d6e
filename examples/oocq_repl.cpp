// An interactive shell over the library: load a schema and a state, then
// issue queries and meta-commands. Reads stdin line by line, so it also
// works in pipelines:
//
//   $ printf 'schema rental.oocq\nstate db.oocq\n{ x | x in Auto }\n' | oocq_repl
//
// Commands:
//   schema FILE              load a schema (clears the state)
//   state FILE               load a state DSL file
//   minimize QUERY           run the optimizer pipeline
//   contain Q1 ; Q2          containment of two terminal queries
//   explain Q1 ; Q2          narrated containment
//   sat QUERY                satisfiability (general queries expanded)
//   trace FILE | trace off   record engine spans; 'off' (or quit) writes
//                            the Chrome tracing JSON to FILE
//   metrics on|off|show      collect engine metrics; 'show'/'off' print
//                            the registry as STATS text
//   show schema | state      print the loaded artifacts
//   QUERY                    evaluate on the loaded state (default)
//   help, quit

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "core/explain.h"
#include "core/optimizer.h"
#include "core/satisfiability.h"
#include "parser/parser.h"
#include "parser/state_parser.h"
#include "query/printer.h"
#include "query/well_formed.h"
#include "schema/schema_printer.h"
#include "state/evaluation.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace {

using namespace oocq;

struct Session {
  std::optional<Schema> schema;
  std::optional<State> state;

  // Observability sinks; active between 'trace FILE'/'metrics on' and the
  // matching 'off' (or quit). The log/registry outlive their RAII
  // installers, so destruction order inside the struct is managed by
  // StopTrace/StopMetrics rather than member order.
  std::string trace_path;
  std::unique_ptr<TraceLog> trace_log;
  std::unique_ptr<TraceSession> trace_session;
  std::unique_ptr<MetricsRegistry> registry;
  std::unique_ptr<MetricsScope> metrics_scope;

  /// Engine options for the next command: phase table in Summary() while
  /// either sink is live.
  MinimizationOptions Options() const {
    MinimizationOptions options;
    options.observability.metrics =
        metrics_scope != nullptr || trace_session != nullptr;
    return options;
  }
};

std::string Trim(const std::string& text) {
  size_t begin = text.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  size_t end = text.find_last_not_of(" \t\r\n");
  return text.substr(begin, end - begin + 1);
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot open '" + path + "'");
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

void Report(const Status& status) {
  std::printf("error: %s\n", status.ToString().c_str());
}

void StopTrace(Session& session) {
  if (session.trace_session == nullptr) return;
  session.trace_session.reset();  // finalizes the log
  Status written = session.trace_log->WriteChromeTrace(session.trace_path);
  if (written.ok()) {
    std::printf("trace: wrote %zu span(s) to %s\n",
                session.trace_log->events().size(),
                session.trace_path.c_str());
  } else {
    Report(written);
  }
  session.trace_log.reset();
  session.trace_path.clear();
}

void StopMetrics(Session& session, bool print) {
  if (session.metrics_scope == nullptr) return;
  session.metrics_scope.reset();
  if (print) {
    std::printf("%s", PrometheusString(session.registry->Snap()).c_str());
  }
  session.registry.reset();
}

void HandleEvaluate(Session& session, const std::string& text) {
  if (!session.state.has_value()) {
    std::printf("no state loaded; use: state FILE\n");
    return;
  }
  StatusOr<ConjunctiveQuery> query = ParseQuery(*session.schema, text);
  if (!query.ok()) return Report(query.status());
  StatusOr<ConjunctiveQuery> well_formed =
      NormalizeToWellFormed(*session.schema, *query);
  if (!well_formed.ok()) return Report(well_formed.status());
  StatusOr<std::vector<Oid>> answers = Evaluate(*session.state, *well_formed);
  if (!answers.ok()) return Report(answers.status());
  std::printf("%zu answer(s):", answers->size());
  for (Oid oid : *answers) {
    std::printf(" %s", session.state->DebugString(oid).c_str());
  }
  std::printf("\n");
}

void HandlePair(Session& session, const std::string& args, bool explain) {
  size_t split = args.find(';');
  if (split == std::string::npos) {
    std::printf("usage: %s Q1 ; Q2\n", explain ? "explain" : "contain");
    return;
  }
  StatusOr<ConjunctiveQuery> q1 =
      ParseQuery(*session.schema, Trim(args.substr(0, split)));
  if (!q1.ok()) return Report(q1.status());
  StatusOr<ConjunctiveQuery> q2 =
      ParseQuery(*session.schema, Trim(args.substr(split + 1)));
  if (!q2.ok()) return Report(q2.status());
  if (explain) {
    StatusOr<ContainmentExplanation> result =
        ExplainContainment(*session.schema, *q1, *q2);
    if (!result.ok()) return Report(result.status());
    std::printf("%s", result->text.c_str());
  } else {
    QueryOptimizer optimizer(*session.schema, session.Options());
    StatusOr<bool> result = optimizer.IsContained(*q1, *q2);
    if (!result.ok()) return Report(result.status());
    std::printf("%s\n", *result ? "CONTAINED" : "NOT contained");
  }
}

void HandleLine(Session& session, const std::string& raw) {
  std::string line = Trim(raw);
  if (line.empty() || line[0] == '#') return;

  auto starts_with = [&line](const char* prefix) {
    return line.rfind(prefix, 0) == 0;
  };
  auto rest_after = [&line](size_t n) { return Trim(line.substr(n)); };

  if (line == "help") {
    std::printf(
        "schema FILE | state FILE | minimize Q | contain Q1 ; Q2 |\n"
        "explain Q1 ; Q2 | sat Q | trace FILE|off | metrics on|off|show |\n"
        "show schema|state | QUERY | quit\n");
    return;
  }
  if (starts_with("trace ")) {
    std::string target = rest_after(6);
    if (target == "off") {
      if (session.trace_session == nullptr) {
        std::printf("trace: not recording\n");
      } else {
        StopTrace(session);
      }
      return;
    }
    if (session.trace_session != nullptr) {
      std::printf("trace: already recording to %s; 'trace off' first\n",
                  session.trace_path.c_str());
      return;
    }
    session.trace_path = target;
    session.trace_log = std::make_unique<TraceLog>();
    session.trace_session = std::make_unique<TraceSession>(
        session.trace_log.get());
    std::printf("trace: recording; 'trace off' writes %s\n", target.c_str());
    return;
  }
  if (starts_with("metrics ")) {
    std::string mode = rest_after(8);
    if (mode == "on") {
      if (session.metrics_scope != nullptr) {
        std::printf("metrics: already collecting\n");
        return;
      }
      session.registry = std::make_unique<MetricsRegistry>();
      session.metrics_scope =
          std::make_unique<MetricsScope>(session.registry.get());
      std::printf("metrics: collecting\n");
    } else if (mode == "show") {
      if (session.metrics_scope == nullptr) {
        std::printf("metrics: not collecting; 'metrics on' first\n");
        return;
      }
      std::printf("%s", PrometheusString(session.registry->Snap()).c_str());
    } else if (mode == "off") {
      if (session.metrics_scope == nullptr) {
        std::printf("metrics: not collecting\n");
        return;
      }
      StopMetrics(session, /*print=*/true);
    } else {
      std::printf("usage: metrics on|off|show\n");
    }
    return;
  }
  if (starts_with("schema ")) {
    StatusOr<std::string> text = ReadFile(rest_after(7));
    if (!text.ok()) return Report(text.status());
    StatusOr<Schema> schema = ParseSchema(*text);
    if (!schema.ok()) return Report(schema.status());
    session.schema = *std::move(schema);
    session.state.reset();
    std::printf("schema loaded: %zu classes\n",
                session.schema->num_classes() - kNumBuiltinClasses);
    return;
  }
  if (!session.schema.has_value()) {
    std::printf("no schema loaded; use: schema FILE\n");
    return;
  }
  if (starts_with("state ")) {
    StatusOr<std::string> text = ReadFile(rest_after(6));
    if (!text.ok()) return Report(text.status());
    StatusOr<State> state = ParseState(&*session.schema, *text);
    if (!state.ok()) return Report(state.status());
    session.state = *std::move(state);
    std::printf("state loaded: %zu objects\n", session.state->num_objects());
    return;
  }
  if (starts_with("minimize ")) {
    QueryOptimizer optimizer(*session.schema, session.Options());
    StatusOr<OptimizeReport> report = optimizer.OptimizeText(rest_after(9));
    if (!report.ok()) return Report(report.status());
    std::printf("%s", report->Summary(*session.schema).c_str());
    return;
  }
  if (starts_with("contain ")) return HandlePair(session, rest_after(8), false);
  if (starts_with("explain ")) return HandlePair(session, rest_after(8), true);
  if (starts_with("sat ")) {
    StatusOr<ConjunctiveQuery> query =
        ParseQuery(*session.schema, rest_after(4));
    if (!query.ok()) return Report(query.status());
    StatusOr<ConjunctiveQuery> well_formed =
        NormalizeToWellFormed(*session.schema, *query);
    if (!well_formed.ok()) return Report(well_formed.status());
    StatusOr<bool> sat = CheckSatisfiableGeneral(*session.schema, *well_formed);
    if (!sat.ok()) return Report(sat.status());
    std::printf("%s\n", *sat ? "SATISFIABLE" : "UNSATISFIABLE");
    return;
  }
  if (line == "show schema") {
    std::printf("%s", SchemaToString(*session.schema).c_str());
    return;
  }
  if (line == "show state") {
    if (!session.state.has_value()) {
      std::printf("no state loaded\n");
      return;
    }
    std::printf("%s", StateToString(*session.state).c_str());
    return;
  }
  if (line == "quit" || line == "exit") {
    // Flush pending sinks before exiting so a trace is never lost.
    StopTrace(session);
    StopMetrics(session, /*print=*/false);
    std::exit(0);
  }
  // Default: treat the line as a query to evaluate.
  HandleEvaluate(session, line);
}

}  // namespace

int main() {
  Session session;
  std::string line;
  bool tty = true;
  if (tty) std::printf("oocq> ");
  while (std::getline(std::cin, line)) {
    HandleLine(session, line);
    if (tty) std::printf("oocq> ");
  }
  std::printf("\n");
  // EOF without 'quit': flush sinks the same way.
  StopTrace(session);
  StopMetrics(session, /*print=*/false);
  return 0;
}
