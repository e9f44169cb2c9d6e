#include "core/expansion.h"

#include <optional>
#include <set>
#include <vector>

#include "core/satisfiability.h"
#include "query/well_formed.h"
#include "support/metrics.h"
#include "support/status_macros.h"
#include "support/trace.h"

namespace oocq {

namespace {

// Prop 2.1's disjuncts of a well-formed `query`: pruned and normalized
// under options.prune_unsatisfiable, the raw combinations otherwise.
StatusOr<std::vector<ConjunctiveQuery>> Expand(const Schema& schema,
                                               const ConjunctiveQuery& query,
                                               const ExpansionOptions& options,
                                               ExpansionStats* stats) {
  // Prop 2.1: the query is equivalent to the union of its terminal
  // instantiations — the expansion phase of every pipeline run.
  OOCQ_TRACE_SPAN(span, "Expand");
  ScopedPhaseTimer timer("phase/expand");
  // E(Q) does not depend on range classes, so every combination below
  // shares this one graph.
  std::optional<EqualityGraph> graph;
  OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, query, &graph));

  // Per-variable terminal choices: the terminal descendants of any class
  // in the variable's range disjunction.
  std::vector<std::vector<ClassId>> choices(query.num_vars());
  uint64_t product = 1;
  for (VarId v = 0; v < query.num_vars(); ++v) {
    const Atom* range = query.RangeAtomOf(v);
    std::set<ClassId> terminals;
    for (ClassId c : range->classes()) {
      for (ClassId t : schema.TerminalDescendants(c)) terminals.insert(t);
    }
    if (terminals.empty()) {
      // A class with no terminal descendant cannot exist in our model
      // (every class is its own terminal descendant when terminal), but
      // guard against future hierarchy variants.
      return Status::Internal("class without terminal descendants");
    }
    choices[v].assign(terminals.begin(), terminals.end());
    if (product > options.max_disjuncts / choices[v].size()) {
      return Status::ResourceExhausted(
          "terminal expansion exceeds " +
          std::to_string(options.max_disjuncts) +
          " disjuncts; raise ExpansionOptions::max_disjuncts");
    }
    product *= choices[v].size();
  }
  if (stats != nullptr) stats->raw_disjuncts = product;
  if (options.budget != nullptr) {
    // Charge the whole product up front: the budget refuses before any
    // disjunct is materialized, keeping peak memory bounded.
    OOCQ_RETURN_IF_ERROR(options.budget->ChargeDisjuncts(product));
  }

  // Combination `c` in mixed-radix (variable 0 least significant — the
  // order the serial counter enumerated).
  auto build_combination = [&](uint64_t c) {
    ConjunctiveQuery disjunct;
    for (VarId v = 0; v < query.num_vars(); ++v) {
      disjunct.AddVariable(query.var_name(v));
    }
    disjunct.set_free_var(query.free_var());
    std::vector<size_t> pick(query.num_vars());
    uint64_t rest = c;
    for (VarId v = 0; v < query.num_vars(); ++v) {
      pick[v] = static_cast<size_t>(rest % choices[v].size());
      rest /= choices[v].size();
    }
    for (const Atom& atom : query.atoms()) {
      if (atom.kind() == AtomKind::kRange) {
        disjunct.AddAtom(
            Atom::Range(atom.var(), {choices[atom.var()][pick[atom.var()]]}));
      } else {
        disjunct.AddAtom(atom);
      }
    }
    return disjunct;
  };

  std::vector<ConjunctiveQuery> result;
  if (!options.prune_unsatisfiable) {
    for (uint64_t c = 0; c < product; ++c) {
      result.push_back(build_combination(c));
    }
  } else {
    // Keep each satisfiable combination's normal form, in enumeration
    // order.
    OOCQ_TRACE_SPAN(prune_span, "SatisfiabilityPrune");
    prune_span.Arg("raw", product);
    ScopedPhaseTimer prune_timer("phase/satisfiability_prune");
    for (uint64_t c = 0; c < product; ++c) {
      // NormalizeTerminalQuery decides Thm 2.2 first and fails only on an
      // unsatisfiable combination, which the prune drops.
      StatusOr<ConjunctiveQuery> normalized =
          NormalizeTerminalQuery(schema, build_combination(c), *graph);
      if (normalized.ok()) result.push_back(*std::move(normalized));
    }
  }

  if (stats != nullptr) stats->satisfiable_disjuncts = result.size();
  span.Arg("raw", product)
      .Arg("satisfiable", static_cast<uint64_t>(result.size()));
  OOCQ_METRIC_ADD("expand/raw_disjuncts", product);
  OOCQ_METRIC_ADD("expand/satisfiable_disjuncts", result.size());
  return result;
}

}  // namespace

StatusOr<UnionQuery> ExpandToTerminalQueries(const Schema& schema,
                                             const ConjunctiveQuery& query,
                                             const ExpansionOptions& options,
                                             ExpansionStats* stats) {
  UnionQuery result;
  OOCQ_ASSIGN_OR_RETURN(result.disjuncts,
                        Expand(schema, query, options, stats));
  return result;
}

StatusOr<TerminalExpansion> ExpandTerminal(const Schema& schema,
                                           const ConjunctiveQuery& query,
                                           const ExpansionOptions& options) {
  TerminalExpansion expansion;
  OOCQ_ASSIGN_OR_RETURN(std::vector<ConjunctiveQuery> disjuncts,
                        Expand(schema, query, options, &expansion.stats));
  if (!options.prune_unsatisfiable) {
    expansion.unpruned = std::move(disjuncts);
    return expansion;
  }
  // Every disjunct here passed the prune above.
  expansion.pruned.reserve(disjuncts.size());
  for (ConjunctiveQuery& disjunct : disjuncts) {
    expansion.pruned.push_back(PrunedDisjunct(std::move(disjunct)));
  }
  return expansion;
}

StatusOr<TerminalExpansion> NormalizeAndExpand(
    const Schema& schema, const ConjunctiveQuery& query,
    const ExpansionOptions& options) {
  OOCQ_ASSIGN_OR_RETURN(ConjunctiveQuery well_formed,
                        NormalizeToWellFormed(schema, query));
  return ExpandTerminal(schema, well_formed, options);
}

}  // namespace oocq
