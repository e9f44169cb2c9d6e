#ifndef OOCQ_CORE_PREPARED_H_
#define OOCQ_CORE_PREPARED_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/derivability.h"
#include "core/expansion.h"
#include "query/query.h"
#include "schema/schema.h"
#include "support/resource_budget.h"
#include "support/status.h"

namespace oocq {

/// One terminal disjunct with the facts every containment decision about
/// it needs, derived once: Thm 2.2's verdict and the normal form Thm 3.1
/// maps into are facts about one disjunct, so a decision over many pairs
/// (Thm 4.1's per-disjunct tests, Thm 4.2's matrix) reads them instead of
/// re-deriving them per pair.
///
/// Each fact is derived on first use, at most once, even under concurrent
/// readers, and only the facts a decision reads are ever derived: a
/// cached verdict needs the CanonicalKey alone. The facts are the
/// well-formedness and terminality checks, Thm 2.2's verdict, the normal
/// form (NormalizeTerminalQuery) and its positivity; the QueryAnalysis
/// Contained() maps into; and the key a ContainmentCache files decisions
/// under. Tied to the schema it was built over, which must outlive it.
///
/// A disjunct a pruned Prop 2.1 expansion kept (PrunedDisjunct) comes
/// with the prune's facts established: well-formed and terminal (a
/// combination of a well-formed query is), satisfiable (the prune ran
/// Thm 2.2 and kept it), and its own normal form (the prune normalized
/// it, and NormalizeTerminalQuery maps its output to itself; DESIGN.md
/// §5.4). Only the positivity is read off the query. Any other input
/// derives every fact; the analysis and the key are always derived.
class PreparedDisjunct {
 public:
  PreparedDisjunct(const Schema& schema, ConjunctiveQuery query);
  /// The prune's facts, established (see the class comment).
  PreparedDisjunct(const Schema& schema, const PrunedDisjunct& disjunct);

  PreparedDisjunct(const PreparedDisjunct&) = delete;
  PreparedDisjunct& operator=(const PreparedDisjunct&) = delete;

  /// The disjunct as given.
  const ConjunctiveQuery& query() const { return *query_; }
  /// CheckWellFormed(query()).
  const Status& well_formed() const { return facts().well_formed; }
  /// Well-formed and terminal: the precondition of every fact below.
  bool terminal() const { return facts().terminal; }
  /// Thm 2.2; false whenever !terminal().
  bool satisfiable() const { return facts().satisfiable; }
  /// Why a terminal disjunct is unsatisfiable; empty otherwise.
  const std::string& unsatisfiable_reason() const { return facts().reason; }
  /// NormalizeTerminalQuery(query()); meaningful only when satisfiable().
  const ConjunctiveQuery& normalized() const {
    const Facts& f = facts();
    return f.normalized.has_value() ? *f.normalized : *query_;
  }
  /// normalized().IsPositive() (false when unsatisfiable).
  bool positive() const { return facts().positive; }

  /// QueryAnalysis::Create(normalized()); FailedPrecondition when the
  /// disjunct is not satisfiable.
  const StatusOr<QueryAnalysis>& analysis() const;
  /// CanonicalKey(query()) — the bytes a ContainmentCache key is made of.
  const std::string& key() const;

 private:
  struct Facts {
    Status well_formed;
    bool terminal = false;
    bool satisfiable = false;
    bool positive = false;
    std::string reason;
    /// Empty when query() is its own normal form.
    std::optional<ConjunctiveQuery> normalized;
  };
  const Facts& facts() const;

  const Schema* schema_;
  std::shared_ptr<const ConjunctiveQuery> query_;
  mutable std::once_flag facts_once_;
  mutable Facts facts_;
  mutable std::once_flag analysis_once_;
  mutable StatusOr<QueryAnalysis> analysis_ = Status::FailedPrecondition(
      "QueryAnalysis requires a satisfiable terminal query");
  mutable std::once_flag key_once_;
  mutable std::string key_;
};

/// The disjuncts of a union, prepared. Shared so a union can be assembled
/// from several prepared queries (UCONTAIN's operands) without copies.
using PreparedDisjuncts = std::vector<std::shared_ptr<const PreparedDisjunct>>;

/// Prepares each query of `disjuncts`, in order.
PreparedDisjuncts PrepareDisjuncts(const Schema& schema,
                                   std::vector<ConjunctiveQuery> disjuncts);

/// One query's NormalizeAndExpand expansion, its disjuncts prepared.
struct PreparedQuery {
  PreparedDisjuncts disjuncts;
  /// The Prop 2.1 product the expansion charged to its budget.
  uint64_t raw_disjuncts = 0;

  /// Charges `budget` (nullable) what expanding this query again would:
  /// its raw disjunct count, before anything is decided. A request that
  /// reuses a prepared operand owes this in place of the expansion.
  Status ChargeReuse(ResourceBudget* budget) const;
};

/// `expansion`'s disjuncts prepared, in order: a pruned disjunct brings
/// the prune's facts, an unpruned one derives its own.
PreparedQuery PrepareExpansion(const Schema& schema,
                               const TerminalExpansion& expansion);

/// NormalizeAndExpand(query) under `options` (its budget is charged the
/// raw disjunct count before any disjunct is materialized), with every
/// disjunct prepared.
StatusOr<PreparedQuery> PrepareQuery(const Schema& schema,
                                     const ConjunctiveQuery& query,
                                     const ExpansionOptions& options = {});

}  // namespace oocq

#endif  // OOCQ_CORE_PREPARED_H_
