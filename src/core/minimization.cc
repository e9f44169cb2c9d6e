#include "core/minimization.h"

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/containment_cache.h"
#include "core/derivability.h"
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

/// Minimizes the variables of each disjunct in order and appends the
/// results (and their work counters) to `report`.
Status MinimizeDisjunctsInto(const Schema& schema,
                             const UnionQuery& nonredundant,
                             const EngineOptions& options,
                             MinimizationReport& report) {
  // §4 variable minimization (Thm 4.3 / Cor 4.4) of every surviving
  // disjunct.
  OOCQ_TRACE_SPAN(span, "MinimizeVariables");
  span.Arg("disjuncts", static_cast<uint64_t>(nonredundant.disjuncts.size()));
  ScopedPhaseTimer timer("phase/minimize_vars");
  for (const ConjunctiveQuery& disjunct : nonredundant.disjuncts) {
    OOCQ_ASSIGN_OR_RETURN(
        ConjunctiveQuery minimal,
        MinimizeTerminalPositive(schema, disjunct, options,
                                 &report.variables_removed,
                                 &report.containment));
    report.minimized.disjuncts.push_back(std::move(minimal));
  }
  span.Arg("vars_removed", report.variables_removed);
  OOCQ_METRIC_ADD("minimize/vars_removed", report.variables_removed);
  return Status::Ok();
}

}  // namespace

StatusOr<ConjunctiveQuery> MinimizeTerminalPositive(
    const Schema& schema, const ConjunctiveQuery& query,
    const MinimizationOptions& options, uint64_t* removed,
    ContainmentStats* stats) {
  OOCQ_TRACE_SPAN(span, "MinimizeTerminalPositive");
  OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, query));
  if (!query.IsTerminal(schema) || !query.IsPositive()) {
    return Status::FailedPrecondition(
        "MinimizeTerminalPositive requires a terminal positive query");
  }
  OOCQ_ASSIGN_OR_RETURN(ConjunctiveQuery current,
                        NormalizeTerminalQuery(schema, query));
  span.Arg("vars_in", static_cast<uint64_t>(current.num_vars()));

  bool progress = true;
  while (progress) {
    progress = false;
    // `current` changes only on a fold, so one analysis serves every
    // candidate variable until then.
    OOCQ_ASSIGN_OR_RETURN(QueryAnalysis analysis,
                          QueryAnalysis::Create(schema, current));
    for (VarId v = 0; v < current.num_vars(); ++v) {
      // One poll per candidate variable: each self-mapping search is an
      // independent work item, the granularity the cancellation contract
      // promises (support/cancellation.h).
      if (options.containment.cancel != nullptr) {
        OOCQ_RETURN_IF_ERROR(options.containment.cancel->Check());
      }
      MappingResult mapping =
          FindEliminatingSelfMapping(schema, analysis, v, options, stats);
      if (mapping.exhausted) {
        return Status::ResourceExhausted(
            "self-mapping search exceeded max_mapping_steps");
      }
      if (!mapping.found()) continue;
      // Thm 4.3: μ(Q) ≡ Q; v is outside the image so at least one
      // variable disappears.
      ConjunctiveQuery folded = ApplyVariableMapping(current, *mapping.image);
      if (removed != nullptr) {
        *removed += current.num_vars() - folded.num_vars();
      }
      current = std::move(folded);
      progress = true;
      break;
    }
  }
  span.Arg("vars_out", static_cast<uint64_t>(current.num_vars()));
  return current;
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

namespace {

/// RemoveRedundantDisjuncts over prepared disjuncts.
StatusOr<UnionQuery> RemoveRedundant(const Schema& schema,
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

  UnionQuery result;
  for (size_t i = 0; i < n; ++i) {
    if (kept[i]) result.disjuncts.push_back(live[i]->query());
  }
  span.Arg("kept", static_cast<uint64_t>(result.disjuncts.size()));
  return result;
}

}  // namespace

StatusOr<UnionQuery> RemoveRedundantDisjuncts(const Schema& schema,
                                              const UnionQuery& query,
                                              const MinimizationOptions& options,
                                              ContainmentCache* cache,
                                              ContainmentStats* stats) {
  return RemoveRedundant(schema, PrepareDisjuncts(schema, query.disjuncts),
                         options, cache, stats);
}

StatusOr<UnionQuery> RemoveRedundantDisjuncts(
    const Schema& schema, const TerminalExpansion& expansion,
    const MinimizationOptions& options, ContainmentCache* cache,
    ContainmentStats* stats) {
  return RemoveRedundant(schema, PrepareExpansion(schema, expansion).disjuncts,
                         options, cache, stats);
}

StatusOr<MinimizationReport> MinimizePositiveUnion(
    const Schema& schema, const UnionQuery& query,
    const MinimizationOptions& options, ContainmentCache* cache) {
  const EngineOptions opts = WithPropagatedParallelism(options);
  MinimizationReport report;

  // Each input disjunct expands (and prunes) on its own.
  TerminalExpansion expanded;
  for (const ConjunctiveQuery& disjunct : query.disjuncts) {
    OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, disjunct));
    if (!disjunct.IsPositive()) {
      return Status::FailedPrecondition(
          "MinimizePositiveUnion requires positive disjuncts");
    }
    OOCQ_ASSIGN_OR_RETURN(TerminalExpansion part,
                          ExpandTerminal(schema, disjunct, opts.expansion));
    report.raw_disjuncts += part.stats.raw_disjuncts;
    report.satisfiable_disjuncts += part.stats.satisfiable_disjuncts;
    for (PrunedDisjunct& q : part.pruned) {
      expanded.pruned.push_back(std::move(q));
    }
    for (ConjunctiveQuery& q : part.unpruned) {
      expanded.unpruned.push_back(std::move(q));
    }
  }

  OOCQ_ASSIGN_OR_RETURN(
      UnionQuery nonredundant,
      RemoveRedundantDisjuncts(schema, expanded, opts, cache,
                               &report.containment));
  report.nonredundant_disjuncts = nonredundant.disjuncts.size();

  OOCQ_RETURN_IF_ERROR(
      MinimizeDisjunctsInto(schema, nonredundant, opts, report));
  return report;
}

StatusOr<MinimizationReport> MinimizePositiveQuery(
    const Schema& schema, const ConjunctiveQuery& query,
    const MinimizationOptions& options, ContainmentCache* cache) {
  OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, query));
  if (!query.IsPositive()) {
    return Status::FailedPrecondition(
        "MinimizePositiveQuery requires a positive conjunctive query");
  }
  const EngineOptions opts = WithPropagatedParallelism(options);

  MinimizationReport report;

  OOCQ_ASSIGN_OR_RETURN(TerminalExpansion expanded,
                        ExpandTerminal(schema, query, opts.expansion));
  report.raw_disjuncts = expanded.stats.raw_disjuncts;
  report.satisfiable_disjuncts = expanded.stats.satisfiable_disjuncts;

  OOCQ_ASSIGN_OR_RETURN(
      UnionQuery nonredundant,
      RemoveRedundantDisjuncts(schema, expanded, opts, cache,
                               &report.containment));
  report.nonredundant_disjuncts = nonredundant.disjuncts.size();

  OOCQ_RETURN_IF_ERROR(
      MinimizeDisjunctsInto(schema, nonredundant, opts, report));
  return report;
}

}  // namespace oocq
