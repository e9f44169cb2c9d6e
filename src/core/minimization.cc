#include "core/minimization.h"

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/containment_cache.h"
#include "core/derivability.h"
#include "core/general_minimization.h"
#include "core/mapping.h"
#include "core/prepared.h"
#include "core/satisfiability.h"
#include "query/well_formed.h"
#include "support/metrics.h"
#include "support/status_macros.h"
#include "support/trace.h"

namespace oocq {

namespace {

/// Searches for a non-contradictory self-mapping of the analyzed query
/// that preserves the free variable and avoids `eliminate` in its image.
/// Returns the image when found.
MappingResult FindEliminatingSelfMapping(const Schema& schema,
                                         const QueryAnalysis& analysis,
                                         VarId eliminate,
                                         const MinimizationOptions& options,
                                         ContainmentStats* stats) {
  const ConjunctiveQuery& query = analysis.query();
  MappingConstraints constraints;
  constraints.forbidden_target = eliminate;
  constraints.free_target = query.free_var();
  constraints.max_steps = options.containment.max_mapping_steps;
  MappingResult mapping =
      FindNonContradictoryMapping(schema, query, analysis, constraints);
  if (stats != nullptr) {
    ++stats->mapping_searches;
    stats->mapping_steps += mapping.steps;
  }
  return mapping;
}

/// The fold loop (Thm 4.3 / Cor 4.4): starting from the analyzed normal
/// form, applies non-bijective non-contradictory self-mappings that
/// preserve the free variable until only bijective ones exist. A fold of a
/// positive query is an equivalence (Thm 4.3); the theorem does not extend
/// to general queries, so a fold of one is kept only when EquivalentQueries
/// proves it (§5). `removed` counts eliminated variables; `stats`
/// accumulates the self-mapping and verification work.
StatusOr<ConjunctiveQuery> FoldVariables(const Schema& schema,
                                         const QueryAnalysis& start,
                                         const char* span_name,
                                         const EngineOptions& options,
                                         uint64_t* removed,
                                         ContainmentStats* stats) {
  OOCQ_TRACE_SPAN(span, span_name);
  span.Arg("vars_in", static_cast<uint64_t>(start.query().num_vars()));
  // The query changes only on a fold, so one analysis serves every
  // candidate variable until then: `start`, then each fold's own.
  const QueryAnalysis* analysis = &start;
  std::optional<QueryAnalysis> folded_analysis;
  bool progress = true;
  while (progress) {
    progress = false;
    const ConjunctiveQuery& current = analysis->query();
    for (VarId v = 0; v < current.num_vars(); ++v) {
      // One poll per candidate variable: each self-mapping search is an
      // independent work item, the granularity the cancellation contract
      // promises (support/cancellation.h).
      if (options.containment.cancel != nullptr) {
        OOCQ_RETURN_IF_ERROR(options.containment.cancel->Check());
      }
      MappingResult mapping =
          FindEliminatingSelfMapping(schema, *analysis, v, options, stats);
      if (mapping.exhausted) {
        return Status::ResourceExhausted(
            "self-mapping search exceeded max_mapping_steps");
      }
      if (!mapping.found()) continue;
      // v is outside the image, so at least one variable disappears.
      ConjunctiveQuery folded = ApplyVariableMapping(current, *mapping.image);
      if (!current.IsPositive()) {
        OOCQ_ASSIGN_OR_RETURN(
            bool equivalent, EquivalentQueries(schema, current, folded,
                                               options.containment, stats));
        if (!equivalent) continue;
      }
      if (removed != nullptr) {
        *removed += current.num_vars() - folded.num_vars();
      }
      // `current` belongs to the analysis replaced here: leave its loop.
      OOCQ_ASSIGN_OR_RETURN(QueryAnalysis next,
                            QueryAnalysis::Create(schema, folded));
      folded_analysis.emplace(std::move(next));
      analysis = &*folded_analysis;
      progress = true;
      break;
    }
  }
  span.Arg("vars_out", static_cast<uint64_t>(analysis->query().num_vars()));
  return analysis->query();
}

/// The fold loop on a terminal query's normal form.
StatusOr<ConjunctiveQuery> FoldNormalForm(const Schema& schema,
                                          const ConjunctiveQuery& query,
                                          const char* span_name,
                                          const EngineOptions& options,
                                          uint64_t* removed,
                                          ContainmentStats* stats) {
  OOCQ_ASSIGN_OR_RETURN(ConjunctiveQuery normalized,
                        NormalizeTerminalQuery(schema, query));
  OOCQ_ASSIGN_OR_RETURN(QueryAnalysis analysis,
                        QueryAnalysis::Create(schema, normalized));
  return FoldVariables(schema, analysis, span_name, options, removed, stats);
}

/// RemoveRedundantDisjuncts over prepared disjuncts; returns the kept ones.
StatusOr<PreparedDisjuncts> RemoveRedundant(const Schema& schema,
                                            const PreparedDisjuncts& disjuncts,
                                            const MinimizationOptions& options,
                                            ContainmentCache* cache,
                                            ContainmentStats* stats) {
  // Thm 4.2: the nonredundant union is unique up to equivalence — this
  // phase finds it via the pairwise containment matrix.
  OOCQ_TRACE_SPAN(span, "RemoveRedundantDisjuncts");
  span.Arg("disjuncts_in", static_cast<uint64_t>(disjuncts.size()));
  ScopedPhaseTimer timer("phase/redundancy");
  const EngineOptions opts = WithPropagatedParallelism(options);

  // Drop unsatisfiable disjuncts, and collapse disjuncts that are
  // syntactic renamings of an earlier one (canonical-key pre-pass) before
  // paying for pairwise containment tests. The matrix below reuses the
  // screening's facts and keys. A disjunct that is not well-formed and
  // terminal stays live, so the matrix reports why. A pruned disjunct
  // brings the prune's facts, so its screening computes only its key.
  PreparedDisjuncts live;
  {
    OOCQ_TRACE_SPAN(screen_span, "ScreenDisjuncts");
    screen_span.Arg("disjuncts", static_cast<uint64_t>(disjuncts.size()));
    std::set<std::string_view> seen_keys;
    for (const std::shared_ptr<const PreparedDisjunct>& disjunct : disjuncts) {
      if (disjunct->terminal() && !disjunct->satisfiable()) continue;
      if (disjunct->satisfiable() &&
          !seen_keys.insert(disjunct->key()).second) {
        continue;
      }
      live.push_back(disjunct);
    }
    screen_span.Arg("live", static_cast<uint64_t>(live.size()));
  }

  const size_t n = live.size();
  // contained[i][j] == live[i] ⊆ live[j]. Every pair is decided (no early
  // exit), so `stats` counts all n·(n-1) tests.
  const size_t num_pairs = n < 2 ? 0 : n * (n - 1);
  OOCQ_TRACE_SPAN(matrix_span, "ContainmentMatrix");
  matrix_span.Arg("pairs", static_cast<uint64_t>(num_pairs));
  OOCQ_METRIC_ADD("redundancy/pairs", num_pairs);
  ContainmentStats matrix_stats;
  std::vector<std::vector<bool>> contained(n, std::vector<bool>(n, false));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      // Poll per matrix cell so an n² scan aborts within one test of a
      // tripped token.
      if (opts.containment.cancel != nullptr) {
        OOCQ_RETURN_IF_ERROR(opts.containment.cancel->Check());
      }
      OOCQ_ASSIGN_OR_RETURN(
          contained[i][j],
          cache != nullptr
              ? cache->Contained(*live[i], *live[j], &matrix_stats,
                                 opts.containment.cancel,
                                 opts.containment.budget)
              : Contained(schema, *live[i], *live[j], opts.containment,
                          &matrix_stats));
    }
  }
  if (stats != nullptr) stats->Add(matrix_stats);

  // Keep the first member of each equivalence group; drop anything
  // contained in a surviving disjunct.
  std::vector<bool> kept(n, true);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n && kept[i]; ++j) {
      if (i == j || !kept[j] || !contained[i][j]) continue;
      if (!contained[j][i] || j < i) kept[i] = false;
    }
  }

  PreparedDisjuncts result;
  for (size_t i = 0; i < n; ++i) {
    if (kept[i]) result.push_back(live[i]);
  }
  span.Arg("kept", static_cast<uint64_t>(result.size()));
  return result;
}

UnionQuery QueriesOf(const PreparedDisjuncts& disjuncts) {
  UnionQuery result;
  for (const std::shared_ptr<const PreparedDisjunct>& disjunct : disjuncts) {
    result.disjuncts.push_back(disjunct->query());
  }
  return result;
}

/// The names one run reports its fold step under (docs/observability.md).
struct FoldLabels {
  const char* step_span;      // the fold step over every kept disjunct
  const char* step_phase;     // its ScopedPhaseTimer
  const char* disjunct_span;  // one disjunct's fold loop
};
constexpr FoldLabels kExactRun = {"MinimizeVariables", "phase/minimize_vars",
                                  "MinimizeTerminalPositive"};
constexpr FoldLabels kVerifiedRun = {"FoldDisjuncts", "phase/fold_vars",
                                     "FoldTerminalQueryVerified"};

/// The pipeline body after Prop 2.1, shared by §4's exact run and §5's
/// verified run: Thm 4.1/4.2 redundancy removal over `expansion`, then the
/// fold loop on each kept disjunct. A kept disjunct is satisfiable and
/// terminal, and a pruned one is its own normal form (DESIGN.md §5.4), so
/// its fold starts from the analysis the containment matrix built.
StatusOr<MinimizationReport> MinimizeExpansion(
    const Schema& schema, const TerminalExpansion& expansion,
    const EngineOptions& options, ContainmentCache* cache,
    const FoldLabels& labels) {
  const EngineOptions opts = WithPropagatedParallelism(options);
  MinimizationReport report;
  report.raw_disjuncts = expansion.stats.raw_disjuncts;
  report.satisfiable_disjuncts = expansion.stats.satisfiable_disjuncts;

  OOCQ_ASSIGN_OR_RETURN(
      PreparedDisjuncts kept,
      RemoveRedundant(schema, PrepareExpansion(schema, expansion).disjuncts,
                      opts, cache, &report.containment));
  report.nonredundant_disjuncts = kept.size();

  OOCQ_TRACE_SPAN(span, labels.step_span);
  span.Arg("disjuncts", static_cast<uint64_t>(kept.size()));
  ScopedPhaseTimer timer(labels.step_phase);
  for (const std::shared_ptr<const PreparedDisjunct>& disjunct : kept) {
    const StatusOr<QueryAnalysis>& analysis = disjunct->analysis();
    if (!analysis.ok()) return analysis.status();
    OOCQ_ASSIGN_OR_RETURN(
        ConjunctiveQuery minimal,
        FoldVariables(schema, *analysis, labels.disjunct_span, opts,
                      &report.variables_removed, &report.containment));
    report.minimized.disjuncts.push_back(std::move(minimal));
  }
  span.Arg("vars_removed", report.variables_removed);
  OOCQ_METRIC_ADD("minimize/vars_removed", report.variables_removed);
  return report;
}

}  // namespace

StatusOr<ConjunctiveQuery> MinimizeTerminalPositive(
    const Schema& schema, const ConjunctiveQuery& query,
    const MinimizationOptions& options, uint64_t* removed,
    ContainmentStats* stats) {
  OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, query));
  if (!query.IsTerminal(schema) || !query.IsPositive()) {
    return Status::FailedPrecondition(
        "MinimizeTerminalPositive requires a terminal positive query");
  }
  return FoldNormalForm(schema, query, kExactRun.disjunct_span, options,
                        removed, stats);
}

StatusOr<ConjunctiveQuery> FoldTerminalQueryVerified(
    const Schema& schema, const ConjunctiveQuery& query,
    const MinimizationOptions& options, uint64_t* removed,
    ContainmentStats* stats) {
  OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, query));
  if (!query.IsTerminal(schema)) {
    return Status::FailedPrecondition(
        "FoldTerminalQueryVerified requires a terminal query");
  }
  return FoldNormalForm(schema, query, kVerifiedRun.disjunct_span, options,
                        removed, stats);
}

StatusOr<bool> IsMinimalTerminalPositive(const Schema& schema,
                                         const ConjunctiveQuery& query,
                                         const MinimizationOptions& options) {
  OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, query));
  if (!query.IsTerminal(schema) || !query.IsPositive()) {
    return Status::FailedPrecondition(
        "IsMinimalTerminalPositive requires a terminal positive query");
  }
  // A non-bijective self-mapping on a finite variable set misses some
  // variable, so trying every variable as the missing one is exhaustive.
  OOCQ_ASSIGN_OR_RETURN(QueryAnalysis analysis,
                        QueryAnalysis::Create(schema, query));
  for (VarId v = 0; v < query.num_vars(); ++v) {
    MappingResult mapping =
        FindEliminatingSelfMapping(schema, analysis, v, options, nullptr);
    if (mapping.exhausted) {
      return Status::ResourceExhausted(
          "self-mapping search exceeded max_mapping_steps");
    }
    if (mapping.found()) return false;
  }
  return true;
}

StatusOr<UnionQuery> RemoveRedundantDisjuncts(const Schema& schema,
                                              const UnionQuery& query,
                                              const MinimizationOptions& options,
                                              ContainmentCache* cache,
                                              ContainmentStats* stats) {
  OOCQ_ASSIGN_OR_RETURN(
      PreparedDisjuncts kept,
      RemoveRedundant(schema, PrepareDisjuncts(schema, query.disjuncts),
                      options, cache, stats));
  return QueriesOf(kept);
}

StatusOr<UnionQuery> RemoveRedundantDisjuncts(
    const Schema& schema, const TerminalExpansion& expansion,
    const MinimizationOptions& options, ContainmentCache* cache,
    ContainmentStats* stats) {
  OOCQ_ASSIGN_OR_RETURN(
      PreparedDisjuncts kept,
      RemoveRedundant(schema, PrepareExpansion(schema, expansion).disjuncts,
                      options, cache, stats));
  return QueriesOf(kept);
}

StatusOr<MinimizationReport> MinimizePositiveUnion(
    const Schema& schema, const UnionQuery& query,
    const MinimizationOptions& options, ContainmentCache* cache) {
  // Each input disjunct expands (and prunes) on its own.
  TerminalExpansion expanded;
  for (const ConjunctiveQuery& disjunct : query.disjuncts) {
    OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, disjunct));
    if (!disjunct.IsPositive()) {
      return Status::FailedPrecondition(
          "MinimizePositiveUnion requires positive disjuncts");
    }
    OOCQ_ASSIGN_OR_RETURN(TerminalExpansion part,
                          ExpandTerminal(schema, disjunct, options.expansion));
    expanded.stats.raw_disjuncts += part.stats.raw_disjuncts;
    expanded.stats.satisfiable_disjuncts += part.stats.satisfiable_disjuncts;
    for (PrunedDisjunct& q : part.pruned) {
      expanded.pruned.push_back(std::move(q));
    }
    for (ConjunctiveQuery& q : part.unpruned) {
      expanded.unpruned.push_back(std::move(q));
    }
  }
  return MinimizeExpansion(schema, expanded, options, cache, kExactRun);
}

StatusOr<MinimizationReport> MinimizePositiveQuery(
    const Schema& schema, const ConjunctiveQuery& query,
    const MinimizationOptions& options, ContainmentCache* cache) {
  OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, query));
  if (!query.IsPositive()) {
    return Status::FailedPrecondition(
        "MinimizePositiveQuery requires a positive conjunctive query");
  }
  OOCQ_ASSIGN_OR_RETURN(TerminalExpansion expanded,
                        ExpandTerminal(schema, query, options.expansion));
  return MinimizeExpansion(schema, expanded, options, cache, kExactRun);
}

StatusOr<MinimizationReport> MinimizeConjunctiveQuery(
    const Schema& schema, const ConjunctiveQuery& query,
    const MinimizationOptions& options, ContainmentCache* cache) {
  OOCQ_TRACE_SPAN(span, "MinimizeConjunctiveQuery");
  OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, query));
  OOCQ_ASSIGN_OR_RETURN(TerminalExpansion expanded,
                        ExpandTerminal(schema, query, options.expansion));
  return MinimizeExpansion(schema, expanded, options, cache, kVerifiedRun);
}

}  // namespace oocq
