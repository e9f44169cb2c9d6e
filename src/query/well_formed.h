#ifndef OOCQ_QUERY_WELL_FORMED_H_
#define OOCQ_QUERY_WELL_FORMED_H_

#include <optional>

#include "query/equality_graph.h"
#include "query/query.h"
#include "schema/schema.h"
#include "support/status.h"

namespace oocq {

/// Checks structural sanity independent of the paper's well-formedness:
/// valid variable ids, a declared free variable, known class ids, nonempty
/// class disjunctions and attribute names.
Status ValidateStructure(const Schema& schema, const ConjunctiveQuery& query);

/// Checks the paper's well-formedness conditions (§2.3):
///  (i)   every term is an object term or a set term, but not both;
///  (ii)  every object term of the form x.A is equated to some variable;
///  (iii) every variable has exactly one range atom.
/// Implies ValidateStructure.
Status CheckWellFormed(const Schema& schema, const ConjunctiveQuery& query);

/// CheckWellFormed that hands out the equality graph E(Q) it builds for
/// conditions (i) and (ii), so a caller going on to Thm 2.2 or to
/// normalization builds the graph once. `*graph` holds E(Q) whenever the
/// check got as far as building it (always when the result is ok), and
/// is empty when the structural or range-atom checks failed first.
Status CheckWellFormed(const Schema& schema, const ConjunctiveQuery& query,
                       std::optional<EqualityGraph>* graph);

/// Rewrites `query` into an equivalent well-formed query, applying the
/// paper's two remarks after §2.3:
///  - a variable with no range atom receives one over all terminal classes;
///  - a variable with several range atoms keeps the first; each extra
///    range atom is moved onto a fresh variable equated with it;
///  - an object term x.A not equated to any variable is equated to a fresh
///    variable ranging over the terminal descendants of the possible types
///    of A (or all terminal classes when A's type cannot be narrowed).
/// Fails if condition (i) is violated (that is a genuine type error the
/// rewrite cannot repair) or the query is structurally invalid.
StatusOr<ConjunctiveQuery> NormalizeToWellFormed(const Schema& schema,
                                                 const ConjunctiveQuery& query);

}  // namespace oocq

#endif  // OOCQ_QUERY_WELL_FORMED_H_
