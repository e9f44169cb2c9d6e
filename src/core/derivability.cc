#include "core/derivability.h"

#include <optional>

#include "core/satisfiability.h"
#include "query/well_formed.h"
#include "support/status_macros.h"

namespace oocq {

StatusOr<QueryAnalysis> QueryAnalysis::Create(const Schema& schema,
                                              const ConjunctiveQuery& query) {
  std::optional<EqualityGraph> built;
  OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, query, &built));
  if (!query.IsTerminal(schema)) {
    return Status::FailedPrecondition(
        "QueryAnalysis requires a terminal conjunctive query");
  }
  SatisfiabilityResult sat = CheckSatisfiable(schema, query, *built);
  if (!sat.satisfiable) {
    return Status::FailedPrecondition(
        "QueryAnalysis requires a satisfiable query: " + sat.reason);
  }

  QueryAnalysis analysis(schema, query, *std::move(built));
  analysis.range_class_.resize(query.num_vars());
  for (VarId v = 0; v < query.num_vars(); ++v) {
    analysis.range_class_[v] = query.RangeClassOf(v);
  }
  const EqualityGraph& graph = analysis.graph_;
  for (const Atom& atom : query.atoms()) {
    if (atom.kind() == AtomKind::kMembership ||
        atom.kind() == AtomKind::kNonMembership) {
      TermId set_var_rep = graph.Find(graph.VarNode(atom.set_term().var));
      analysis.set_term_index_.emplace(set_var_rep, atom.set_term().attr);
      (atom.kind() == AtomKind::kMembership ? analysis.membership_index_
                                            : analysis.non_membership_index_)
          .emplace(graph.Find(graph.VarNode(atom.var())), set_var_rep,
                   atom.set_term().attr);
    } else if (atom.kind() == AtomKind::kConstant) {
      // Unique per class by satisfiability condition (h).
      analysis.constant_index_.emplace(graph.Find(graph.VarNode(atom.var())),
                                       atom.constant());
    }
  }
  return analysis;
}

bool QueryAnalysis::DerivesConstant(VarId x, const ConstantValue& value) const {
  const ConstantValue* bound = ConstantOfClass(x);
  return bound != nullptr && *bound == value;
}

const ConstantValue* QueryAnalysis::ConstantOfClass(VarId x) const {
  auto it = constant_index_.find(graph_.Find(graph_.VarNode(x)));
  return it == constant_index_.end() ? nullptr : &it->second;
}

TermId QueryAnalysis::ObjectTermClassRep(const Term& t) const {
  TermId var_node = graph_.VarNode(t.var);
  if (!t.is_attribute()) return graph_.Find(var_node);
  for (VarId s : graph_.ClassVariables(var_node)) {
    TermId node = graph_.FindTermId(Term::Attr(s, t.attr));
    if (node != kInvalidTermId && graph_.IsObjectTerm(node)) {
      // All s.attr nodes for s ∈ [t.var] are congruent, so the first hit
      // determines the class.
      return graph_.Find(node);
    }
  }
  return kInvalidTermId;
}

bool QueryAnalysis::DerivesEquality(const Term& lhs, const Term& rhs) const {
  TermId lrep = ObjectTermClassRep(lhs);
  TermId rrep = ObjectTermClassRep(rhs);
  return lrep != kInvalidTermId && lrep == rrep;
}

bool QueryAnalysis::DerivesMembership(VarId x, VarId y,
                                      const std::string& attr) const {
  return membership_index_.count(std::make_tuple(
             graph_.Find(graph_.VarNode(x)), graph_.Find(graph_.VarNode(y)),
             attr)) > 0;
}

bool QueryAnalysis::NotContradictsInequality(const Term& lhs,
                                             const Term& rhs) const {
  TermId lrep = ObjectTermClassRep(lhs);
  TermId rrep = ObjectTermClassRep(rhs);
  if (lrep == kInvalidTermId || rrep == kInvalidTermId) return false;
  // Q & {lhs != rhs} is satisfiable iff the operands are in different
  // equivalence classes (condition (e)) that are not forced equal by
  // identical constant bindings (condition (e2) of the extension).
  // Normalization merges same-constant classes, so the second check only
  // fires on non-normalized targets.
  if (lrep == rrep) return false;
  auto lconst = constant_index_.find(lrep);
  auto rconst = constant_index_.find(rrep);
  if (lconst != constant_index_.end() && rconst != constant_index_.end() &&
      lconst->second == rconst->second) {
    return false;
  }
  return true;
}

bool QueryAnalysis::HasSetTerm(VarId y, const std::string& attr) const {
  return set_term_index_.count(std::make_pair(
             graph_.Find(graph_.VarNode(y)), attr)) > 0;
}

bool QueryAnalysis::NotContradictsMembership(VarId x, VarId y,
                                             const std::string& attr) const {
  if (!HasSetTerm(y, attr)) return false;
  // (d): x's class lies under the element type. y.attr is a set term of a
  // satisfiable query, so (c) already made attr a set attribute.
  const TypeExpr* type = schema_->FindAttribute(range_class_[y], attr);
  if (type == nullptr || !type->is_set() ||
      !schema_->IsSubclassOf(range_class_[x], type->cls())) {
    return false;
  }
  // (f): no non-membership denies this (element class, set class) pair.
  return non_membership_index_.count(std::make_tuple(
             graph_.Find(graph_.VarNode(x)), graph_.Find(graph_.VarNode(y)),
             attr)) == 0;
}

bool QueryAnalysis::NotContradictsNonMembership(VarId x, VarId y,
                                                const std::string& attr) const {
  // Q & {x notin t.attr} is satisfiable iff the set term exists (which the
  // definition requires — an unconstrained set object could contain x, or
  // be null) and the membership is not derivable (condition (f)).
  return HasSetTerm(y, attr) && !DerivesMembership(x, y, attr);
}

}  // namespace oocq
