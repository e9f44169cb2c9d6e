#ifndef OOCQ_CORE_SATISFIABILITY_H_
#define OOCQ_CORE_SATISFIABILITY_H_

#include <string>

#include "query/equality_graph.h"
#include "query/query.h"
#include "schema/schema.h"
#include "support/status.h"

namespace oocq {

/// Outcome of the satisfiability test, with a human-readable cause when
/// unsatisfiable (useful to report *why* an expansion disjunct dropped).
struct SatisfiabilityResult {
  bool satisfiable = false;
  std::string reason;
};

/// Decides whether a well-formed *terminal* conjunctive query has a state
/// with a non-empty answer (paper Thm 2.2; the paper's proof lives in an
/// unavailable tech report — DESIGN.md §5.3 derives this procedure and
/// argues completeness via witness-state construction).
///
/// The query is unsatisfiable iff one of:
///  (a) two variables with distinct range classes are in one equivalence
///      class of E(Q) (distinct terminal extents are disjoint);
///  (b) an object term x.A where A is not an attribute of x's class, or A
///      is set-typed, or the class of [x.A]'s variables is not a terminal
///      descendant of A's type class;
///  (c) a set term y.A where A is not an attribute or not set-typed;
///  (d) a membership s ∈ y.A whose element class is not a terminal
///      descendant of the element type of y.A;
///  (e) an inequality atom whose sides are in one equivalence class;
///  (f) a non-membership x ∉ y.A such that Q ⊢ x ∈ y.A;
///  (g) a non-range atom x ∉ C1∨…∨Cn with x's class a descendant of some Ci.
///
/// Precondition: CheckWellFormed(schema, query).ok() and
/// query.IsTerminal(schema).
SatisfiabilityResult CheckSatisfiable(const Schema& schema,
                                      const ConjunctiveQuery& query);

/// CheckSatisfiable over a prebuilt E(Q) (CheckWellFormed hands it out).
/// `graph` must be EqualityGraph::Build of `query`, or of a query that
/// differs from it only in the classes of its range atoms: E(Q) does not
/// depend on range classes, so every Prop 2.1 combination of one query
/// shares that query's graph.
SatisfiabilityResult CheckSatisfiable(const Schema& schema,
                                      const ConjunctiveQuery& query,
                                      const EqualityGraph& graph);

/// Satisfiability for *general* well-formed conjunctive queries: by
/// Prop 2.1 the query is equivalent to its terminal expansion, so it is
/// satisfiable iff some expansion disjunct is. Returns the first
/// satisfiable disjunct's index in `witness_disjunct` when non-null.
StatusOr<bool> CheckSatisfiableGeneral(const Schema& schema,
                                       const ConjunctiveQuery& query,
                                       size_t* witness_disjunct = nullptr);

/// Normalizes a satisfiable terminal conjunctive query (§2.5 + DESIGN.md
/// §5.3): removes non-range atoms (implied by the terminal range atoms)
/// and inequality atoms whose sides lie in provably disjoint terminal
/// classes. Both removals preserve the answer on every state: well-formed
/// queries equate every object attribute term to a ranged variable through
/// atoms that survive the removal, so operand non-nullness stays forced.
/// Non-membership atoms are never removed — under 3-valued logic even a
/// type-trivial `x ∉ y.A` forces y.A to be non-null (Ex 3.3).
///
/// Returns FailedPrecondition if the query is unsatisfiable.
StatusOr<ConjunctiveQuery> NormalizeTerminalQuery(const Schema& schema,
                                                  const ConjunctiveQuery& query);

/// NormalizeTerminalQuery over a prebuilt E(Q), with CheckSatisfiable's
/// precondition on `graph`.
StatusOr<ConjunctiveQuery> NormalizeTerminalQuery(const Schema& schema,
                                                  const ConjunctiveQuery& query,
                                                  const EqualityGraph& graph);

}  // namespace oocq

#endif  // OOCQ_CORE_SATISFIABILITY_H_
