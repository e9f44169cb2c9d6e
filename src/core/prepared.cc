#include "core/prepared.h"

#include <optional>
#include <utility>

#include "core/canonical.h"
#include "core/satisfiability.h"
#include "query/well_formed.h"
#include "support/status_macros.h"

namespace oocq {

PreparedDisjunct::PreparedDisjunct(const Schema& schema,
                                   ConjunctiveQuery query)
    : schema_(&schema),
      query_(std::make_shared<const ConjunctiveQuery>(std::move(query))) {}

PreparedDisjunct::PreparedDisjunct(const Schema& schema,
                                   const PrunedDisjunct& disjunct)
    : schema_(&schema), query_(disjunct.query_) {
  std::call_once(facts_once_, [this] {
    facts_.terminal = true;
    facts_.satisfiable = true;
    facts_.positive = query_->IsPositive();
  });
}

const PreparedDisjunct::Facts& PreparedDisjunct::facts() const {
  std::call_once(facts_once_, [this] {
    Facts& f = facts_;
    const ConjunctiveQuery& query = *query_;
    // One E(Q) serves all three checks.
    std::optional<EqualityGraph> graph;
    f.well_formed = CheckWellFormed(*schema_, query, &graph);
    f.terminal = f.well_formed.ok() && query.IsTerminal(*schema_);
    if (!f.terminal) return;
    SatisfiabilityResult sat = CheckSatisfiable(*schema_, query, *graph);
    if (!sat.satisfiable) {
      f.reason = std::move(sat.reason);
      return;
    }
    StatusOr<ConjunctiveQuery> normalized =
        NormalizeTerminalQuery(*schema_, query, *graph);
    if (!normalized.ok()) return;  // unreachable: the query is satisfiable
    f.satisfiable = true;
    f.normalized = *std::move(normalized);
    f.positive = f.normalized->IsPositive();
  });
  return facts_;
}

const StatusOr<QueryAnalysis>& PreparedDisjunct::analysis() const {
  std::call_once(analysis_once_, [this] {
    if (satisfiable()) {
      analysis_ = QueryAnalysis::Create(*schema_, normalized());
    }
  });
  return analysis_;
}

const std::string& PreparedDisjunct::key() const {
  std::call_once(key_once_, [this] { key_ = CanonicalKey(*query_); });
  return key_;
}

PreparedDisjuncts PrepareDisjuncts(const Schema& schema,
                                   std::vector<ConjunctiveQuery> disjuncts) {
  PreparedDisjuncts prepared;
  prepared.reserve(disjuncts.size());
  for (ConjunctiveQuery& disjunct : disjuncts) {
    prepared.push_back(
        std::make_shared<const PreparedDisjunct>(schema, std::move(disjunct)));
  }
  return prepared;
}

Status PreparedQuery::ChargeReuse(ResourceBudget* budget) const {
  if (budget == nullptr) return Status::Ok();
  return budget->ChargeDisjuncts(raw_disjuncts);
}

PreparedQuery PrepareExpansion(const Schema& schema,
                               const TerminalExpansion& expansion) {
  PreparedQuery prepared;
  prepared.raw_disjuncts = expansion.stats.raw_disjuncts;
  prepared.disjuncts = PrepareDisjuncts(schema, expansion.unpruned);
  prepared.disjuncts.reserve(expansion.unpruned.size() +
                             expansion.pruned.size());
  for (const PrunedDisjunct& disjunct : expansion.pruned) {
    prepared.disjuncts.push_back(
        std::make_shared<const PreparedDisjunct>(schema, disjunct));
  }
  return prepared;
}

StatusOr<PreparedQuery> PrepareQuery(const Schema& schema,
                                     const ConjunctiveQuery& query,
                                     const ExpansionOptions& options) {
  OOCQ_ASSIGN_OR_RETURN(TerminalExpansion expansion,
                        NormalizeAndExpand(schema, query, options));
  return PrepareExpansion(schema, expansion);
}

}  // namespace oocq
