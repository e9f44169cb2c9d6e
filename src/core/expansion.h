#ifndef OOCQ_CORE_EXPANSION_H_
#define OOCQ_CORE_EXPANSION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "query/query.h"
#include "schema/schema.h"
#include "support/resource_budget.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace oocq {

/// Options for the terminal expansion.
struct ExpansionOptions {
  /// Cap on the product of per-variable terminal-class choices.
  uint64_t max_disjuncts = 1'000'000;
  /// Optional shared budget; the expansion charges its raw disjunct count
  /// before materializing any (kResourceExhausted on overrun). Unlike
  /// max_disjuncts — a per-call cap — a budget can be shared across the
  /// requests of a session or a whole service. Not owned; may be null.
  ResourceBudget* budget = nullptr;
  /// Drop unsatisfiable disjuncts and normalize the satisfiable ones
  /// (remove non-range atoms etc.). Disable to obtain the raw Prop 2.1
  /// expansion.
  bool prune_unsatisfiable = true;
  /// Fan-out knobs for the per-combination satisfiability pruning; each
  /// Prop 2.1 combination is checked independently and the surviving
  /// disjuncts keep enumeration order. Default serial; the pipeline entry
  /// points overwrite this with EngineOptions::parallel.
  ParallelOptions parallel;
};

/// Statistics about one expansion (reported by the minimizer).
struct ExpansionStats {
  uint64_t raw_disjuncts = 0;         // product of range-choice counts
  uint64_t satisfiable_disjuncts = 0; // after pruning (== raw when disabled)
};

/// Prop 2.1: converts a well-formed conjunctive query into an equivalent
/// union of terminal conjunctive queries. Every variable's range atom
/// x ∈ C1∨…∨Cn is replaced, in all combinations, by x ∈ E for a terminal
/// descendant E of some Ci (the Terminal Class Partitioning Assumption
/// makes the union equivalent). Non-range atoms are evaluated per
/// combination during normalization.
StatusOr<UnionQuery> ExpandToTerminalQueries(const Schema& schema,
                                             const ConjunctiveQuery& query,
                                             const ExpansionOptions& options = {},
                                             ExpansionStats* stats = nullptr);

struct TerminalExpansion;

/// One disjunct a pruned Prop 2.1 expansion kept: well-formed, terminal,
/// satisfiable (Thm 2.2) and NormalizeTerminalQuery's output, which that
/// function maps to itself (DESIGN.md §5.4). Only ExpandTerminal
/// constructs one, so holding one is proof of those facts; a
/// PreparedDisjunct (core/prepared.h) built from it takes them instead of
/// deriving them again. Copies share the query.
class PrunedDisjunct {
 public:
  const ConjunctiveQuery& query() const { return *query_; }

 private:
  friend class PreparedDisjunct;
  friend StatusOr<TerminalExpansion> ExpandTerminal(
      const Schema& schema, const ConjunctiveQuery& query,
      const ExpansionOptions& options);

  explicit PrunedDisjunct(ConjunctiveQuery query)
      : query_(std::make_shared<const ConjunctiveQuery>(std::move(query))) {}

  std::shared_ptr<const ConjunctiveQuery> query_;
};

/// A Prop 2.1 expansion as the engine keeps it to prepare (core/
/// prepared.h): with ExpansionOptions::prune_unsatisfiable (the default)
/// every disjunct is in `pruned`; without it, the raw combinations are in
/// `unpruned`. The other vector is empty.
struct TerminalExpansion {
  std::vector<PrunedDisjunct> pruned;
  std::vector<ConjunctiveQuery> unpruned;
  ExpansionStats stats;
};

/// ExpandToTerminalQueries, keeping what the prune proved about each
/// disjunct it kept (PrunedDisjunct). The disjuncts are the same, in the
/// same order.
StatusOr<TerminalExpansion> ExpandTerminal(const Schema& schema,
                                           const ConjunctiveQuery& query,
                                           const ExpansionOptions& options);

/// Normalizes an arbitrary conjunctive query to well-formed
/// (NormalizeToWellFormed, §2) and expands it (ExpandTerminal, Prop 2.1):
/// the union of terminal queries every decision verb works on.
/// PrepareQuery (core/prepared.h) prepares it at once; a registered
/// query's slot (server/service.h) keeps it to prepare once per request.
StatusOr<TerminalExpansion> NormalizeAndExpand(
    const Schema& schema, const ConjunctiveQuery& query,
    const ExpansionOptions& options = {});

}  // namespace oocq

#endif  // OOCQ_CORE_EXPANSION_H_
