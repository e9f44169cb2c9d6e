#include "core/general_minimization.h"

#include <utility>
#include <vector>

#include "core/containment.h"
#include "core/containment_cache.h"
#include "core/derivability.h"
#include "core/expansion.h"
#include "core/mapping.h"
#include "core/satisfiability.h"
#include "query/well_formed.h"
#include "support/metrics.h"
#include "support/status_macros.h"
#include "support/thread_pool.h"
#include "support/trace.h"

namespace oocq {

StatusOr<ConjunctiveQuery> FoldTerminalQueryVerified(
    const Schema& schema, const ConjunctiveQuery& query,
    const MinimizationOptions& options, uint64_t* removed,
    ContainmentStats* stats) {
  OOCQ_TRACE_SPAN(span, "FoldTerminalQueryVerified");
  OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, query));
  if (!query.IsTerminal(schema)) {
    return Status::FailedPrecondition(
        "FoldTerminalQueryVerified requires a terminal query");
  }
  OOCQ_ASSIGN_OR_RETURN(ConjunctiveQuery current,
                        NormalizeTerminalQuery(schema, query));

  span.Arg("vars_in", static_cast<uint64_t>(current.num_vars()));

  bool progress = true;
  while (progress) {
    progress = false;
    OOCQ_ASSIGN_OR_RETURN(QueryAnalysis analysis,
                          QueryAnalysis::Create(schema, current));
    for (VarId v = 0; v < current.num_vars() && !progress; ++v) {
      // One poll per candidate variable, as in MinimizeTerminalPositive.
      if (options.containment.cancel != nullptr) {
        OOCQ_RETURN_IF_ERROR(options.containment.cancel->Check());
      }
      MappingConstraints constraints;
      constraints.forbidden_target = v;
      constraints.free_target = current.free_var();
      constraints.max_steps = options.containment.max_mapping_steps;
      MappingResult mapping =
          FindNonContradictoryMapping(schema, current, analysis, constraints);
      if (stats != nullptr) {
        ++stats->mapping_searches;
        stats->mapping_steps += mapping.steps;
      }
      if (mapping.exhausted) {
        return Status::ResourceExhausted(
            "self-mapping search exceeded max_mapping_steps");
      }
      if (!mapping.found()) continue;

      ConjunctiveQuery folded = ApplyVariableMapping(current, *mapping.image);
      // A non-contradictory self-mapping guarantees equivalence only for
      // positive queries (Thm 4.3); for general queries, verify.
      bool accept;
      if (current.IsPositive()) {
        accept = true;
      } else {
        OOCQ_ASSIGN_OR_RETURN(
            accept, EquivalentQueries(schema, current, folded,
                                      options.containment, stats));
      }
      if (!accept) continue;
      if (removed != nullptr) {
        *removed += current.num_vars() - folded.num_vars();
      }
      current = std::move(folded);
      progress = true;
    }
  }
  span.Arg("vars_out", static_cast<uint64_t>(current.num_vars()));
  return current;
}

StatusOr<ConjunctiveQuery> RemoveRedundantAtoms(
    const Schema& schema, const ConjunctiveQuery& query,
    const MinimizationOptions& options, uint64_t* removed) {
  OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, query));
  if (!query.IsTerminal(schema)) {
    return Status::FailedPrecondition(
        "RemoveRedundantAtoms requires a terminal query");
  }
  OOCQ_ASSIGN_OR_RETURN(ConjunctiveQuery current,
                        NormalizeTerminalQuery(schema, query));

  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < current.atoms().size(); ++i) {
      if (current.atoms()[i].kind() == AtomKind::kRange) continue;
      ConjunctiveQuery reduced;
      for (VarId v = 0; v < current.num_vars(); ++v) {
        reduced.AddVariable(current.var_name(v));
      }
      reduced.set_free_var(current.free_var());
      for (size_t j = 0; j < current.atoms().size(); ++j) {
        if (j != i) reduced.AddAtom(current.atoms()[j]);
      }
      if (!CheckWellFormed(schema, reduced).ok()) continue;
      // Removal only weakens: redundant iff (Q - A) ⊆ Q.
      OOCQ_ASSIGN_OR_RETURN(
          bool contained,
          Contained(schema, reduced, current, options.containment, nullptr));
      if (!contained) continue;
      current = std::move(reduced);
      if (removed != nullptr) ++*removed;
      progress = true;
      break;
    }
  }
  return current;
}

StatusOr<MinimizationReport> MinimizeConjunctiveQuery(
    const Schema& schema, const ConjunctiveQuery& query,
    const MinimizationOptions& options, ContainmentCache* cache) {
  OOCQ_TRACE_SPAN(span, "MinimizeConjunctiveQuery");
  OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, query));
  const EngineOptions opts = WithPropagatedParallelism(options);

  MinimizationReport report;

  OOCQ_ASSIGN_OR_RETURN(TerminalExpansion expanded,
                        ExpandTerminal(schema, query, opts.expansion));
  report.raw_disjuncts = expanded.stats.raw_disjuncts;
  report.satisfiable_disjuncts = expanded.stats.satisfiable_disjuncts;

  // RemoveRedundantDisjuncts uses the general Contained test, which is
  // sound for any terminal conjunctive disjuncts.
  OOCQ_ASSIGN_OR_RETURN(
      UnionQuery nonredundant,
      RemoveRedundantDisjuncts(schema, expanded, opts, cache,
                               &report.containment));
  report.nonredundant_disjuncts = nonredundant.disjuncts.size();

  // Verified folding of each survivor is independent work (Thm 4.3 does
  // not extend to general disjuncts, so each fold re-verifies; the
  // verification containments are per-disjunct and fan out with them).
  struct FoldOutcome {
    ConjunctiveQuery folded;
    uint64_t removed = 0;
    ContainmentStats stats;
  };
  OOCQ_TRACE_SPAN(fold_span, "FoldDisjuncts");
  fold_span.Arg("disjuncts",
                static_cast<uint64_t>(nonredundant.disjuncts.size()));
  ScopedPhaseTimer fold_timer("phase/fold_vars");
  OOCQ_ASSIGN_OR_RETURN(
      std::vector<FoldOutcome> outcomes,
      (ParallelMap<FoldOutcome>(
          opts.parallel, nonredundant.disjuncts.size(),
          [&](size_t i) -> StatusOr<FoldOutcome> {
            FoldOutcome outcome;
            OOCQ_ASSIGN_OR_RETURN(
                outcome.folded,
                FoldTerminalQueryVerified(schema, nonredundant.disjuncts[i],
                                          opts, &outcome.removed,
                                          &outcome.stats));
            return outcome;
          })));
  for (FoldOutcome& outcome : outcomes) {
    report.variables_removed += outcome.removed;
    report.containment.Add(outcome.stats);
    report.minimized.disjuncts.push_back(std::move(outcome.folded));
  }
  fold_span.Arg("vars_removed", report.variables_removed);
  OOCQ_METRIC_ADD("minimize/vars_removed", report.variables_removed);
  return report;
}

}  // namespace oocq
