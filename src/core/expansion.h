#ifndef OOCQ_CORE_EXPANSION_H_
#define OOCQ_CORE_EXPANSION_H_

#include <cstdint>

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

/// Normalizes an arbitrary conjunctive query to well-formed
/// (NormalizeToWellFormed, §2) and expands it (Prop 2.1): the union of
/// terminal queries every decision verb works on (PrepareQuery,
/// core/prepared.h, prepares its disjuncts for them).
StatusOr<UnionQuery> NormalizeAndExpand(const Schema& schema,
                                        const ConjunctiveQuery& query,
                                        const ExpansionOptions& options = {},
                                        ExpansionStats* stats = nullptr);

}  // namespace oocq

#endif  // OOCQ_CORE_EXPANSION_H_
