// Command-line front end for the library: load a schema file, then
// minimize queries or decide containment/equivalence.
//
//   oocq_cli [--trace=FILE] [--metrics] SCHEMA.oocq minimize '<query>'
//   oocq_cli SCHEMA.oocq contain  '<query1>' '<query2>'
//   oocq_cli SCHEMA.oocq equiv    '<query1>' '<query2>'
//   oocq_cli SCHEMA.oocq satisfiable '<terminal query>'
//   oocq_cli SCHEMA.oocq eval STATE.oocq '<query>'   (answers on a state)
//   oocq_cli SCHEMA.oocq explain '<query1>' '<query2>'  (terminal once
//                                                      normalized)
//
// Observability flags (must precede SCHEMA):
//   --trace=FILE   record the command's engine spans and write a Chrome
//                  tracing JSON to FILE (load in chrome://tracing or
//                  https://ui.perfetto.dev); implies --metrics
//   --metrics      collect engine metrics; Summary() gains the per-phase
//                  table and the full registry is printed as STATS text
//
// Example:
//   oocq_cli rental.oocq minimize
//       '{ x | exists y (x in Vehicle & y in Discount & x in y.VehRented) }'

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "core/containment.h"
#include "flag_util.h"
#include "core/explain.h"
#include "core/optimizer.h"
#include "core/satisfiability.h"
#include "parser/parser.h"
#include "parser/state_parser.h"
#include "query/printer.h"
#include "query/well_formed.h"
#include "state/evaluation.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace {

using namespace oocq;

/// The flag registry doubles as the usage text; main() binds the same
/// instance, so Dispatch's arity errors print identical help.
examples::FlagSet MakeFlagSet(std::string* trace_path, bool* want_metrics,
                              bool* no_compile) {
  examples::FlagSet flags(
      "oocq_cli",
      "SCHEMA (minimize Q | contain Q1 Q2 | equiv Q1 Q2 | satisfiable Q | "
      "eval STATE Q | explain Q1 Q2)",
      "");
  flags.Str("trace", trace_path, "FILE",
            "write a Chrome trace of the run to FILE (implies --metrics)");
  flags.Bool("metrics", want_metrics,
             "print the engine metrics registry as STATS text");
  flags.Bool("no-compile", no_compile,
             "disable the query-compilation fast paths (bytecode VM + "
             "compiled subset scan; docs/compilation.md) for A/B runs");
  return flags;
}

int Usage() {
  std::string trace_path;
  bool want_metrics = false;
  bool no_compile = false;
  return MakeFlagSet(&trace_path, &want_metrics, &no_compile).UsageError();
}

std::string ReadFileOrDie(const char* path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "error: cannot open file '%s'\n", path);
    std::exit(2);
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

template <typename T>
T Must(StatusOr<T> value) {
  if (!value.ok()) {
    std::fprintf(stderr, "error: %s\n", value.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(value);
}

int RunMinimize(const Schema& schema, const MinimizationOptions& options,
                const std::string& text) {
  QueryOptimizer optimizer(schema, options);
  OptimizeReport report = Must(optimizer.OptimizeText(text));
  std::printf("%s", report.Summary(schema).c_str());
  return 0;
}

int RunContain(const Schema& schema, const MinimizationOptions& options,
               const std::string& q1, const std::string& q2,
               bool both_directions) {
  QueryOptimizer optimizer(schema, options);
  ConjunctiveQuery a = Must(ParseQuery(schema, q1));
  ConjunctiveQuery b = Must(ParseQuery(schema, q2));
  if (both_directions) {
    bool equivalent = Must(optimizer.IsEquivalent(a, b));
    std::printf("%s\n", equivalent ? "EQUIVALENT" : "NOT equivalent");
    return equivalent ? 0 : 1;
  }
  bool contained = Must(optimizer.IsContained(a, b));
  std::printf("%s\n", contained ? "CONTAINED (Q1 <= Q2)" : "NOT contained");
  return contained ? 0 : 1;
}

int RunSatisfiable(const Schema& schema, const std::string& text) {
  ConjunctiveQuery query = Must(ParseQuery(schema, text));
  StatusOr<ConjunctiveQuery> well_formed = NormalizeToWellFormed(schema, query);
  if (!well_formed.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 well_formed.status().ToString().c_str());
    return 1;
  }
  if (!well_formed->IsTerminal(schema)) {
    std::fprintf(stderr,
                 "error: 'satisfiable' requires a terminal query; use "
                 "'minimize' to expand first\n");
    return 2;
  }
  SatisfiabilityResult result = CheckSatisfiable(schema, *well_formed);
  if (result.satisfiable) {
    std::printf("SATISFIABLE\n");
    return 0;
  }
  std::printf("UNSATISFIABLE: %s\n", result.reason.c_str());
  return 1;
}

int RunEval(const Schema& schema, const MinimizationOptions& options,
            const char* state_path, const std::string& text) {
  State database = Must(ParseState(&schema, ReadFileOrDie(state_path)));
  ConjunctiveQuery query = Must(ParseQuery(schema, text));
  StatusOr<ConjunctiveQuery> well_formed = NormalizeToWellFormed(schema, query);
  if (!well_formed.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 well_formed.status().ToString().c_str());
    return 1;
  }
  // The search-space counters describe tree-walker work, so the stats
  // sink only rides along on the interpreted path; the default compiled
  // run (docs/compilation.md) prints the answers alone.
  EvalOptions eval_options;
  eval_options.enable_compilation = options.enable_compilation;
  EvalStats stats;
  std::vector<Oid> answers =
      eval_options.enable_compilation
          ? Must(Evaluate(database, *well_formed, eval_options))
          : Must(Evaluate(database, *well_formed, eval_options, &stats));
  std::printf("%zu answer(s):\n", answers.size());
  for (Oid oid : answers) {
    std::printf("  %s\n", database.DebugString(oid).c_str());
  }
  if (eval_options.enable_compilation) {
    std::printf("(compiled; rerun with --no-compile for search-space "
                "counters)\n");
  } else {
    std::printf("(%llu candidate objects, %llu assignments tried)\n",
                static_cast<unsigned long long>(stats.candidate_pool),
                static_cast<unsigned long long>(stats.assignments_tried));
  }
  return 0;
}

int Dispatch(const Schema& schema, const MinimizationOptions& options,
             int argc, char** argv) {
  std::string command = argv[0];
  if (command == "minimize" && argc == 2) {
    return RunMinimize(schema, options, argv[1]);
  }
  if (command == "contain" && argc == 3) {
    return RunContain(schema, options, argv[1], argv[2],
                      /*both_directions=*/false);
  }
  if (command == "equiv" && argc == 3) {
    return RunContain(schema, options, argv[1], argv[2],
                      /*both_directions=*/true);
  }
  if (command == "satisfiable" && argc == 2) {
    return RunSatisfiable(schema, argv[1]);
  }
  if (command == "eval" && argc == 3) {
    return RunEval(schema, options, argv[1], argv[2]);
  }
  if (command == "explain" && argc == 3) {
    ConjunctiveQuery q1 = Must(ParseQuery(schema, argv[1]));
    ConjunctiveQuery q2 = Must(ParseQuery(schema, argv[2]));
    ContainmentExplanation explanation = Must(ExplainContainment(
        schema, q1, q2, WithPropagatedParallelism(options).containment));
    std::printf("%s", explanation.text.c_str());
    return explanation.contained ? 0 : 1;
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  bool want_metrics = false;
  bool no_compile = false;
  examples::FlagSet flags =
      MakeFlagSet(&trace_path, &want_metrics, &no_compile);
  int arg = flags.Parse(argc, argv);
  if (argc - arg < 3) return Usage();

  Schema schema = Must(ParseSchema(ReadFileOrDie(argv[arg])));

  // Tracing implies metrics: the trace and the phase table describe the
  // same run. Both sinks wrap the whole command, so every engine call the
  // command makes lands in one log/registry.
  const bool observing = want_metrics || !trace_path.empty();
  MinimizationOptions options;
  options.observability.metrics = observing;
  options.enable_compilation = !no_compile;

  TraceLog trace_log;
  MetricsRegistry registry;
  std::optional<TraceSession> trace_session;
  std::optional<MetricsScope> metrics_scope;
  if (!trace_path.empty()) trace_session.emplace(&trace_log);
  if (observing) metrics_scope.emplace(&registry);

  int rc = Dispatch(schema, options, argc - arg - 1, argv + arg + 1);

  metrics_scope.reset();
  trace_session.reset();  // finalizes the log
  if (!trace_path.empty()) {
    Status written = trace_log.WriteChromeTrace(trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: wrote %zu span(s) to %s\n",
                 trace_log.events().size(), trace_path.c_str());
  }
  if (want_metrics) {
    std::printf("%s", PrometheusString(registry.Snap()).c_str());
  }
  return rc;
}
