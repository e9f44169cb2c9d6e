#ifndef OOCQ_CORE_MINIMIZATION_H_
#define OOCQ_CORE_MINIMIZATION_H_

#include "core/containment.h"
#include "core/engine_options.h"
#include "core/expansion.h"
#include "query/query.h"
#include "schema/schema.h"
#include "support/status.h"

namespace oocq {

class ContainmentCache;

/// Historical name for the engine-wide option struct; kept as an alias so
/// existing call sites compile unchanged (core/engine_options.h).
using MinimizationOptions = EngineOptions;

/// Bookkeeping from one minimization run: MinimizePositiveQuery, or
/// the general MinimizeConjunctiveQuery (core/general_minimization.h).
struct MinimizationReport {
  /// The search-space-optimal union of minimal terminal positive
  /// conjunctive queries equivalent to the input (Thms 4.2/4.5); for a
  /// general input, an equivalent union with no optimality guarantee.
  UnionQuery minimized;
  uint64_t raw_disjuncts = 0;          // Prop 2.1 combinations
  uint64_t satisfiable_disjuncts = 0;  // after unsatisfiability pruning
  uint64_t nonredundant_disjuncts = 0; // after redundancy removal (Thm 4.1)
  uint64_t variables_removed = 0;      // folded by self-mappings (Thm 4.3)
  /// Aggregate work counters of every containment / self-mapping search
  /// the pipeline ran (the containment matrix has no early exit, and the
  /// shared cache computes each decision exactly once).
  ContainmentStats containment;
};

/// Exact minimization for positive conjunctive queries (§4): expands the
/// query into a union of terminal positive queries (Prop 2.1), drops
/// unsatisfiable disjuncts, removes redundant disjuncts (containment,
/// Thm 4.1), and minimizes the variables of each survivor with
/// non-contradictory self-mappings preserving the free variable (Thm 4.3,
/// Cor 4.4). The result is search-space-optimal among all unions of
/// positive conjunctive queries (Thms 4.2/4.5).
///
/// `cache` (optional) memoizes the containment matrix — pass a
/// ContainmentCache built over the same schema and containment options.
///
/// Precondition: `query` is well-formed and positive (returns
/// FailedPrecondition otherwise; run NormalizeToWellFormed first for raw
/// user queries).
StatusOr<MinimizationReport> MinimizePositiveQuery(
    const Schema& schema, const ConjunctiveQuery& query,
    const MinimizationOptions& options = {},
    ContainmentCache* cache = nullptr);

/// Minimizes one satisfiable terminal positive conjunctive query by
/// repeatedly applying non-bijective non-contradictory self-mappings that
/// preserve the free variable, until only bijective ones exist (Cor 4.4).
/// `removed` (optional) counts eliminated variables; `stats` (optional)
/// accumulates the self-mapping search work.
StatusOr<ConjunctiveQuery> MinimizeTerminalPositive(
    const Schema& schema, const ConjunctiveQuery& query,
    const MinimizationOptions& options = {}, uint64_t* removed = nullptr,
    ContainmentStats* stats = nullptr);

/// Cor 4.4: true iff every non-contradictory self-mapping of `query` that
/// preserves the free variable is bijective.
StatusOr<bool> IsMinimalTerminalPositive(const Schema& schema,
                                         const ConjunctiveQuery& query,
                                         const MinimizationOptions& options = {});

/// Removes from the union every satisfiable disjunct that is contained in
/// another kept disjunct (unsatisfiable disjuncts are dropped outright);
/// of an equivalence group the first disjunct survives. The result is a
/// nonredundant union (§4). Every pair of the O(n²) containment matrix is
/// decided (no early exit), and `stats` counts them all. `cache`
/// (optional) memoizes decisions across renamed-duplicate pairs; when
/// given, its containment options govern the cached tests.
StatusOr<UnionQuery> RemoveRedundantDisjuncts(
    const Schema& schema, const UnionQuery& query,
    const MinimizationOptions& options = {},
    ContainmentCache* cache = nullptr, ContainmentStats* stats = nullptr);

/// RemoveRedundantDisjuncts over an expansion ExpandTerminal kept: its
/// pruned disjuncts bring the prune's facts (PrunedDisjunct), so the
/// screening derives their keys alone. What the minimizers call.
StatusOr<UnionQuery> RemoveRedundantDisjuncts(
    const Schema& schema, const TerminalExpansion& expansion,
    const MinimizationOptions& options = {},
    ContainmentCache* cache = nullptr, ContainmentStats* stats = nullptr);

/// Minimizes a union of positive conjunctive queries as a whole: each
/// disjunct is expanded (Prop 2.1), the combined expansion is made
/// nonredundant across disjunct boundaries, and each survivor's variables
/// are minimized. By Thms 4.1/4.2 the result is the same
/// search-space-optimal union the single-query pipeline produces.
StatusOr<MinimizationReport> MinimizePositiveUnion(
    const Schema& schema, const UnionQuery& query,
    const MinimizationOptions& options = {},
    ContainmentCache* cache = nullptr);

}  // namespace oocq

#endif  // OOCQ_CORE_MINIMIZATION_H_
