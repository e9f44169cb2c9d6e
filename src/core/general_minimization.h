#ifndef OOCQ_CORE_GENERAL_MINIMIZATION_H_
#define OOCQ_CORE_GENERAL_MINIMIZATION_H_

#include "core/minimization.h"
#include "query/query.h"
#include "schema/schema.h"
#include "support/status.h"

namespace oocq {

class ContainmentCache;

/// Best-effort minimization for *general* conjunctive queries — the
/// problem the paper leaves open ("We shall investigate the minimization
/// problem for conjunctive queries in general", §5). Every step is
/// answer-preserving:
///
///  1. Prop 2.1 expansion into terminal disjuncts; unsatisfiable ones
///     dropped (always sound).
///  2. Redundant-disjunct removal using the *general* containment test
///     (Thm 3.1): dropping Qi when Qi ⊆ Qj never changes the union.
///  3. Verified variable folding: a non-contradictory self-mapping that
///     avoids one variable is applied only if the folded disjunct is
///     proven equivalent to the original by the general containment test
///     in both directions. (Thm 4.3 makes the check superfluous for
///     positive disjuncts, so only the others are checked; for them it
///     is required — the theorem does not extend, so we verify instead of
///     trusting the mapping.)
///
/// Unlike MinimizePositiveQuery, the result carries no optimality
/// guarantee — `minimized` is an equivalent, usually smaller union of
/// terminal conjunctive queries, reduced as far as the verified
/// transformations allow. It shares MinimizePositiveQuery's pipeline and
/// fold loop (core/minimization.cc defines this function and the next),
/// so on a positive input the two reports are equal.
StatusOr<MinimizationReport> MinimizeConjunctiveQuery(
    const Schema& schema, const ConjunctiveQuery& query,
    const MinimizationOptions& options = {},
    ContainmentCache* cache = nullptr);

/// The folding step alone, for one satisfiable terminal conjunctive
/// query (any atom kinds). `removed` counts eliminated variables; `stats`
/// accumulates the self-mapping and verification-containment work.
StatusOr<ConjunctiveQuery> FoldTerminalQueryVerified(
    const Schema& schema, const ConjunctiveQuery& query,
    const MinimizationOptions& options = {}, uint64_t* removed = nullptr,
    ContainmentStats* stats = nullptr);

/// Atom-level minimization (a further extension; the paper minimizes
/// variables only): greedily removes non-range atoms whose deletion
/// provably preserves the answer. Dropping an atom can only weaken a
/// conjunctive query, so atom A is redundant iff (Q − A) ⊆ Q, decided by
/// the general containment test. Removals that would break
/// well-formedness (e.g. stranding an attribute term) are skipped; range
/// atoms are never touched (condition (iii)). Left-to-right fixpoint.
/// `removed` counts deleted atoms.
StatusOr<ConjunctiveQuery> RemoveRedundantAtoms(
    const Schema& schema, const ConjunctiveQuery& query,
    const MinimizationOptions& options = {}, uint64_t* removed = nullptr);

}  // namespace oocq

#endif  // OOCQ_CORE_GENERAL_MINIMIZATION_H_
