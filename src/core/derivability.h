#ifndef OOCQ_CORE_DERIVABILITY_H_
#define OOCQ_CORE_DERIVABILITY_H_

#include <map>
#include <set>
#include <string>
#include <tuple>

#include "query/equality_graph.h"
#include "query/query.h"
#include "schema/schema.h"
#include "support/status.h"

namespace oocq {

/// Precomputed view of a satisfiable, well-formed *terminal* conjunctive
/// query: its equality graph E(Q) plus O(1) indices for the derivability
/// (Q ⊢ A) and non-contradiction relations of §3.1. This is the target
/// side of every non-contradictory-mapping search, and Thm 3.1's
/// membership pool is read off it. Tied to the schema it was created
/// over, which must outlive it.
class QueryAnalysis {
 public:
  /// Precondition: `query` is well-formed, terminal and satisfiable
  /// (checked; returns FailedPrecondition otherwise). The query should be
  /// normalized (NormalizeTerminalQuery) when used as a containment
  /// target.
  static StatusOr<QueryAnalysis> Create(const Schema& schema,
                                        const ConjunctiveQuery& query);

  const ConjunctiveQuery& query() const { return query_; }
  const EqualityGraph& graph() const { return graph_; }

  /// The terminal class of variable v (from its unique range atom).
  ClassId range_class(VarId v) const { return range_class_[v]; }

  /// Q ⊢ x ∈ C: the atom is literally present, i.e. C is x's range class.
  bool DerivesRange(VarId x, ClassId c) const { return range_class_[x] == c; }

  /// Q ⊢ lhs = rhs: some representatives of the operand terms are object
  /// terms of Q lying in one equivalence class.
  bool DerivesEquality(const Term& lhs, const Term& rhs) const;

  /// Q ⊢ x ∈ y.attr: some s ∈ [x], t ∈ [y] have the atom `s in t.attr`.
  bool DerivesMembership(VarId x, VarId y, const std::string& attr) const;

  /// Q ⊢ x = <literal>: some s ∈ [x] carries a kConstant atom with this
  /// exact value (the constants extension).
  bool DerivesConstant(VarId x, const ConstantValue& value) const;

  /// The constant bound to x's equivalence class, or nullptr.
  const ConstantValue* ConstantOfClass(VarId x) const;

  /// Q does not contradict lhs ≠ rhs: both operands exist as object terms
  /// of Q (up to equivalence) and adding the inequality stays satisfiable.
  bool NotContradictsInequality(const Term& lhs, const Term& rhs) const;

  /// Q does not contradict x ∉ y.attr: some t ∈ [y] has t.attr as a set
  /// term of Q and adding the non-membership stays satisfiable.
  bool NotContradictsNonMembership(VarId x, VarId y,
                                   const std::string& attr) const;

  /// Q & {x ∈ y.attr} is satisfiable, for a set term y.attr of Q (up to
  /// equivalence; false when !HasSetTerm(y, attr)). Such an atom reuses
  /// existing terms and merges no equivalence classes, so of Thm 2.2's
  /// conditions only two can newly fail (DESIGN.md §5.3): (d), x's class
  /// outside the element type of y.attr, and (f), a non-membership
  /// x' ∉ t.attr of Q with x' ≡ x and t ≡ y. Atoms added together fail
  /// only if one of them fails alone.
  bool NotContradictsMembership(VarId x, VarId y,
                                const std::string& attr) const;

  /// The representative of the equivalence class of f(s) for s ∈ [t.var],
  /// provided f(s) is an object term node of Q for some such s;
  /// kInvalidTermId otherwise. For a plain variable term this is simply
  /// its representative (variables are always object terms).
  TermId ObjectTermClassRep(const Term& t) const;

  /// Whether some t ∈ [y] has t.attr occurring as a set term of Q.
  bool HasSetTerm(VarId y, const std::string& attr) const;

 private:
  QueryAnalysis(const Schema& schema, const ConjunctiveQuery& query,
                EqualityGraph graph)
      : schema_(&schema), query_(query), graph_(std::move(graph)) {}

  const Schema* schema_;
  ConjunctiveQuery query_;
  EqualityGraph graph_;
  std::vector<ClassId> range_class_;
  /// (Find(element var), Find(set var), attr) of every membership atom.
  std::set<std::tuple<TermId, TermId, std::string>> membership_index_;
  /// The same triple of every non-membership atom.
  std::set<std::tuple<TermId, TermId, std::string>> non_membership_index_;
  /// (Find(set var), attr) of every set-term node.
  std::set<std::pair<TermId, std::string>> set_term_index_;
  /// Find(var) -> the constant its class is bound to (unique when
  /// satisfiable).
  std::map<TermId, ConstantValue> constant_index_;
};

}  // namespace oocq

#endif  // OOCQ_CORE_DERIVABILITY_H_
