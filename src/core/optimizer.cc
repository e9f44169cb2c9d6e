#include "core/optimizer.h"

#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "core/containment.h"
#include "core/containment_cache.h"
#include "core/general_minimization.h"
#include "parser/parser.h"
#include "query/printer.h"
#include "query/well_formed.h"
#include "support/metrics.h"
#include "support/status_macros.h"
#include "support/trace.h"

namespace oocq {

namespace {

std::string FormatMs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f ms",
                static_cast<double>(ns) / 1e6);
  return buf;
}

uint64_t CounterOr0(const std::vector<std::pair<std::string, uint64_t>>& counters,
                    std::string_view name) {
  for (const auto& [counter_name, value] : counters) {
    if (counter_name == name) return value;
  }
  return 0;
}

/// Builds the per-phase table of `out` from the run's registry plus the
/// report's work counts. Phases appear in pipeline order, only when their
/// ScopedPhaseTimer actually fired.
void FillRunMetrics(const MetricsRegistry& registry,
                    const MinimizationReport& details, RunMetrics* out) {
  out->enabled = true;
  MetricsRegistry::Snapshot snap = registry.Snap();
  out->counters.clear();
  out->counters.reserve(snap.counters.size());
  for (const MetricsRegistry::CounterSnapshot& counter : snap.counters) {
    out->counters.emplace_back(counter.name, counter.value);
  }

  auto work_for = [&](std::string_view phase) -> std::string {
    if (phase == "well_form") return "1 query normalized";
    if (phase == "expand") {
      return std::to_string(details.raw_disjuncts) + " raw disjunct(s)";
    }
    if (phase == "satisfiability_prune") {
      return std::to_string(details.satisfiable_disjuncts) +
             " satisfiable of " + std::to_string(details.raw_disjuncts) + " (" +
             std::to_string(CounterOr0(out->counters, "satisfiability/checks")) +
             " check(s) total this run)";
    }
    if (phase == "redundancy") {
      return std::to_string(details.nonredundant_disjuncts) + " kept, " +
             std::to_string(CounterOr0(out->counters, "redundancy/pairs")) +
             " pair test(s)";
    }
    if (phase == "minimize_vars" || phase == "fold_vars") {
      return std::to_string(details.variables_removed) + " variable(s) removed";
    }
    return "";
  };

  for (const char* phase :
       {"well_form", "expand", "satisfiability_prune", "redundancy",
        "minimize_vars", "fold_vars"}) {
    const std::string prefix = std::string("phase/") + phase;
    const uint64_t calls = CounterOr0(out->counters, prefix + ".calls");
    if (calls == 0) continue;
    PhaseMetrics row;
    row.name = phase;
    row.ns = CounterOr0(out->counters, prefix + ".ns");
    row.calls = calls;
    row.work = work_for(phase);
    out->phases.push_back(std::move(row));
  }
}

/// Human label for a phase key, with its paper anchor.
const char* PhaseLabel(const std::string& name) {
  if (name == "well_form") return "well-forming (§2)";
  if (name == "expand") return "expansion (Prop 2.1)";
  if (name == "satisfiability_prune") return "satisfiability pruning (Thm 2.2)";
  if (name == "redundancy") return "redundancy removal (Thm 4.1/4.2)";
  if (name == "minimize_vars") return "variable minimization (Thm 4.3)";
  if (name == "fold_vars") return "verified folding (§5)";
  return name.c_str();
}

/// Run-scoped budget wiring: when EngineOptions::limits is set, a budget
/// local to this run — chained under any budget the caller already
/// threaded into the options — replaces the options' budget pointers for
/// the duration of the run. Declare before the run's ContainmentCache so
/// the cache (which copies the containment options) dies first.
class RunBudget {
 public:
  explicit RunBudget(EngineOptions& opts) {
    if (!opts.limits.AnySet()) return;
    budget_.emplace(opts.limits, opts.containment.budget);
    opts.containment.budget = &*budget_;
    opts.expansion.budget = &*budget_;
  }

  void Report(OptimizeReport* report) const {
    if (!budget_.has_value()) return;
    report->budget_enforced = true;
    report->budget_disjuncts = budget_->disjuncts_charged();
    report->budget_work_units = budget_->work_units_charged();
  }

 private:
  std::optional<ResourceBudget> budget_;
};

}  // namespace

std::string OptimizeReport::Summary(const Schema& schema) const {
  std::string out;
  out += exact ? "exact minimization (positive conjunctive query)\n"
               : "equivalent reduced union (general conjunctive query; no "
                 "optimality guarantee)\n";
  out += "  expansion: " + std::to_string(details.raw_disjuncts) +
         " raw disjunct(s), " + std::to_string(details.satisfiable_disjuncts) +
         " satisfiable, " + std::to_string(details.nonredundant_disjuncts) +
         " nonredundant\n";
  out += "  variables removed by self-mappings: " +
         std::to_string(details.variables_removed) + "\n";
  out += "  containment work: " + std::to_string(containment.augmentations) +
         " augmentation(s), " + std::to_string(containment.membership_subsets) +
         " membership subset(s) tested, " +
         std::to_string(containment.membership_subsets_skipped) + " skipped, " +
         std::to_string(containment.mapping_searches) + " mapping search(es), " +
         std::to_string(containment.mapping_steps) + " step(s)\n";
  out += "  containment cache: " + std::to_string(cache_hits) + " hit(s), " +
         std::to_string(cache_misses) + " miss(es), " +
         std::to_string(cache_evictions) + " eviction(s)\n";
  if (budget_enforced) {
    out += "  resource budget: " + std::to_string(budget_disjuncts) +
           " disjunct(s), " + std::to_string(budget_work_units) +
           " subset work unit(s) charged\n";
  }
  out += "  search-space cost: " + std::to_string(original_cost.total) +
         " -> " + std::to_string(optimized_cost.total) + "\n";
  if (metrics.enabled) {
    out += "  phases:\n";
    for (const PhaseMetrics& phase : metrics.phases) {
      std::string label = PhaseLabel(phase.name);
      // Pad by display columns, not bytes: '§' is two UTF-8 bytes but one
      // column, and counting continuation bytes would skew the table.
      size_t columns = 0;
      for (char c : label) {
        if ((static_cast<unsigned char>(c) & 0xC0) != 0x80) ++columns;
      }
      for (; columns < 34; ++columns) label += ' ';
      std::string time = FormatMs(phase.ns);
      if (time.size() < 12) time.resize(12, ' ');
      out += "    " + label + time + phase.work + "\n";
    }
  }
  out += "  optimized: " + UnionQueryToString(schema, optimized) + "\n";
  return out;
}

StatusOr<bool> QueryContained(const Schema& schema, const PreparedQuery& m,
                              const PreparedQuery& n,
                              const ContainmentOptions& options,
                              ContainmentCache* cache,
                              ContainmentStats* stats) {
  OOCQ_TRACE_SPAN(span, "IsContained");
  if (n.disjuncts.size() == 1) {
    const PreparedDisjunct& target = *n.disjuncts[0];
    for (const std::shared_ptr<const PreparedDisjunct>& qi : m.disjuncts) {
      OOCQ_ASSIGN_OR_RETURN(
          bool contained,
          cache != nullptr
              ? cache->Contained(*qi, target, stats, options.cancel,
                                 options.budget)
              : Contained(schema, *qi, target, options, stats));
      if (!contained) return false;
    }
    return true;
  }
  if (n.disjuncts.empty()) return m.disjuncts.empty();
  return UnionContained(schema, m.disjuncts, n.disjuncts, options, stats,
                        cache);
}

StatusOr<bool> QueryContained(const Schema& schema, const ConjunctiveQuery& q1,
                              const ConjunctiveQuery& q2,
                              const EngineOptions& options,
                              ContainmentCache* cache,
                              ContainmentStats* stats) {
  OOCQ_ASSIGN_OR_RETURN(PreparedQuery m,
                        PrepareQuery(schema, q1, options.expansion));
  OOCQ_ASSIGN_OR_RETURN(PreparedQuery n,
                        PrepareQuery(schema, q2, options.expansion));
  return QueryContained(schema, m, n, options.containment, cache, stats);
}

StatusOr<MinimizationReport> MinimizeWellFormedQuery(
    const Schema& schema, const ConjunctiveQuery& well_formed,
    const EngineOptions& options, ContainmentCache* cache) {
  if (well_formed.IsPositive()) {
    return MinimizePositiveQuery(schema, well_formed, options, cache);
  }
  return MinimizeConjunctiveQuery(schema, well_formed, options, cache);
}

StatusOr<OptimizeReport> QueryOptimizer::Optimize(
    const ConjunctiveQuery& query) const {
  EngineOptions opts = WithPropagatedParallelism(options_);
  RunBudget run_budget(opts);

  // Observability sinks for this run. Tracing implies metrics (the trace
  // and the phase table describe the same run). When a caller already
  // installed a MetricsScope (e.g. the CLI around a whole command), the
  // engine collects into — and reports from — that registry instead of
  // installing a nested one.
  const bool collect_metrics =
      opts.observability.metrics || opts.observability.trace != nullptr;
  std::unique_ptr<MetricsRegistry> owned_registry;
  std::optional<MetricsScope> metrics_scope;
  MetricsRegistry* registry = nullptr;
  if (collect_metrics) {
    registry = ActiveMetrics();
    if (registry == nullptr) {
      owned_registry = std::make_unique<MetricsRegistry>();
      metrics_scope.emplace(owned_registry.get());
      registry = owned_registry.get();
    }
  }
  TraceSession trace_session(opts.observability.trace);
  OOCQ_TRACE_SPAN(span, "Optimize");

  ConjunctiveQuery well_formed;
  {
    OOCQ_TRACE_SPAN(wf_span, "NormalizeToWellFormed");
    ScopedPhaseTimer wf_timer("phase/well_form");
    OOCQ_ASSIGN_OR_RETURN(well_formed, NormalizeToWellFormed(schema_, query));
  }

  // One memo table per run: every containment the pipeline performs
  // lands in the same cache, so repeated pairs (matrix symmetry,
  // re-checks after folding) are computed once.
  std::unique_ptr<ContainmentCache> cache =
      MakeContainmentCache(&schema_, opts);

  OptimizeReport report;
  report.original_cost = SearchSpaceCostOf(schema_, well_formed);
  OOCQ_ASSIGN_OR_RETURN(
      report.details,
      MinimizeWellFormedQuery(schema_, well_formed, opts, cache.get()));
  report.optimized = report.details.minimized;
  report.containment = report.details.containment;
  report.exact = well_formed.IsPositive();
  if (cache != nullptr) {
    report.cache_hits = cache->hits();
    report.cache_misses = cache->misses();
    report.cache_evictions = cache->evictions();
  }
  report.optimized_cost = SearchSpaceCostOf(schema_, report.optimized);
  run_budget.Report(&report);
  span.Arg("exact", report.exact ? "true" : "false")
      .Arg("raw", report.details.raw_disjuncts)
      .Arg("optimized_disjuncts",
           static_cast<uint64_t>(report.optimized.disjuncts.size()));
  if (registry != nullptr) {
    FillRunMetrics(*registry, report.details, &report.metrics);
  }
  return report;
}

StatusOr<OptimizeReport> QueryOptimizer::OptimizeText(
    std::string_view text) const {
  OOCQ_ASSIGN_OR_RETURN(ConjunctiveQuery query, ParseQuery(schema_, text));
  return Optimize(query);
}

StatusOr<bool> QueryOptimizer::IsContained(const ConjunctiveQuery& q1,
                                           const ConjunctiveQuery& q2,
                                           ContainmentStats* stats) const {
  EngineOptions opts = WithPropagatedParallelism(options_);
  RunBudget run_budget(opts);
  TraceSession trace_session(opts.observability.trace);
  std::unique_ptr<ContainmentCache> cache =
      MakeContainmentCache(&schema_, opts);
  return QueryContained(schema_, q1, q2, opts, cache.get(), stats);
}

StatusOr<bool> QueryOptimizer::IsEquivalent(const ConjunctiveQuery& q1,
                                            const ConjunctiveQuery& q2,
                                            ContainmentStats* stats) const {
  EngineOptions opts = WithPropagatedParallelism(options_);
  RunBudget run_budget(opts);
  TraceSession trace_session(opts.observability.trace);
  // One cache across both directions: the backward test reuses every
  // decision the forward test computed on shared disjunct pairs.
  std::unique_ptr<ContainmentCache> cache =
      MakeContainmentCache(&schema_, opts);
  OOCQ_ASSIGN_OR_RETURN(bool forward, QueryContained(schema_, q1, q2, opts,
                                                     cache.get(), stats));
  if (!forward) return false;
  return QueryContained(schema_, q2, q1, opts, cache.get(), stats);
}

}  // namespace oocq
