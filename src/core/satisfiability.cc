#include "core/satisfiability.h"

#include <map>
#include <optional>
#include <set>
#include <tuple>

#include "query/equality_graph.h"
#include "query/well_formed.h"
#include "query/printer.h"
#include "support/metrics.h"
#include "support/status_macros.h"

namespace oocq {

namespace {

SatisfiabilityResult Unsat(std::string reason) {
  return SatisfiabilityResult{false, std::move(reason)};
}

/// The terminal class shared by the variables of t's equivalence class;
/// kInvalidClassId when the class has no variable (cannot happen for
/// object terms of well-formed queries) or the variables disagree.
ClassId ClassOfEquivalenceClass(const ConjunctiveQuery& query,
                                const EqualityGraph& graph, TermId t) {
  ClassId result = kInvalidClassId;
  for (VarId v : graph.ClassVariables(t)) {
    ClassId c = query.RangeClassOf(v);
    if (result == kInvalidClassId) {
      result = c;
    } else if (result != c) {
      return kInvalidClassId;
    }
  }
  return result;
}

}  // namespace

SatisfiabilityResult CheckSatisfiable(const Schema& schema,
                                      const ConjunctiveQuery& query) {
  return CheckSatisfiable(schema, query, EqualityGraph::Build(query));
}

SatisfiabilityResult CheckSatisfiable(const Schema& schema,
                                      const ConjunctiveQuery& query,
                                      const EqualityGraph& graph) {
  // Counter only — this (Thm 2.2) is the hottest engine entry point, one
  // call per expanded disjunct, so a span per check would swamp traces.
  OOCQ_METRIC_ADD("satisfiability/checks", 1);

  // (a) variables equated across distinct terminal classes.
  for (TermId rep : graph.ClassRepresentatives()) {
    ClassId cls = kInvalidClassId;
    for (VarId v : graph.ClassVariables(rep)) {
      ClassId c = query.RangeClassOf(v);
      if (cls == kInvalidClassId) {
        cls = c;
      } else if (cls != c) {
        return Unsat("variables '" + query.var_name(v) +
                     "' and another variable of a different terminal class "
                     "are required to be equal");
      }
    }
  }

  // (b)/(c) attribute applicability and kind/type compatibility.
  for (TermId t = 0; t < graph.num_terms(); ++t) {
    const Term& term = graph.term(t);
    if (!term.is_attribute()) continue;
    ClassId owner = query.RangeClassOf(term.var);
    const TypeExpr* type = schema.FindAttribute(owner, term.attr);
    if (type == nullptr) {
      return Unsat("'" + term.attr + "' is not an attribute of class '" +
                   schema.class_name(owner) + "'");
    }
    if (graph.IsObjectTerm(t)) {
      if (type->is_set()) {
        return Unsat("set-typed attribute term '" + query.var_name(term.var) +
                     "." + term.attr + "' used as an object");
      }
      ClassId term_cls = ClassOfEquivalenceClass(query, graph, t);
      if (term_cls == kInvalidClassId ||
          !schema.IsSubclassOf(term_cls, type->cls())) {
        return Unsat("object term '" + query.var_name(term.var) + "." +
                     term.attr + "' is equated to an object outside its "
                     "type '" + schema.class_name(type->cls()) + "'");
      }
    }
    if (graph.IsSetTerm(t) && !type->is_set()) {
      return Unsat("object-typed attribute term '" + query.var_name(term.var) +
                   "." + term.attr + "' used as a set");
    }
  }

  // Constants extension: (h) at most one distinct constant per
  // equivalence class, (i) the constant's primitive class must be the
  // variables' range class.
  std::map<TermId, ConstantValue> constants;
  for (const Atom& atom : query.atoms()) {
    if (atom.kind() != AtomKind::kConstant) continue;
    if (query.RangeClassOf(atom.var()) != ConstantClassOf(atom.constant())) {
      return Unsat("variable '" + query.var_name(atom.var()) +
                   "' is bound to the literal " +
                   ConstantToString(atom.constant()) +
                   " outside its range class");
    }
    TermId rep = graph.Find(graph.VarNode(atom.var()));
    auto [it, inserted] = constants.emplace(rep, atom.constant());
    if (!inserted && !(it->second == atom.constant())) {
      return Unsat("variable '" + query.var_name(atom.var()) +
                   "' is bound to two distinct literals");
    }
  }

  // Membership triple index for (f): (rep(element), rep(set var), attr).
  std::set<std::tuple<TermId, TermId, std::string>> memberships;

  for (const Atom& atom : query.atoms()) {
    switch (atom.kind()) {
      case AtomKind::kMembership: {
        // (d) element class compatible with the set's element type.
        ClassId element_cls = query.RangeClassOf(atom.var());
        ClassId owner = query.RangeClassOf(atom.set_term().var);
        const TypeExpr* type = schema.FindAttribute(owner, atom.set_term().attr);
        // Attribute presence/kind already verified in (b)/(c).
        if (type != nullptr && type->is_set() &&
            !schema.IsSubclassOf(element_cls, type->cls())) {
          return Unsat("membership '" + query.var_name(atom.var()) + " in " +
                       query.var_name(atom.set_term().var) + "." +
                       atom.set_term().attr + "' is type-incompatible: '" +
                       schema.class_name(element_cls) +
                       "' is not a descendant of '" +
                       schema.class_name(type->cls()) + "'");
        }
        memberships.emplace(graph.Find(graph.VarNode(atom.var())),
                            graph.Find(graph.VarNode(atom.set_term().var)),
                            atom.set_term().attr);
        break;
      }
      case AtomKind::kInequality: {
        // (e) both sides forced equal.
        if (graph.Equivalent(atom.lhs(), atom.rhs())) {
          return Unsat("inequality between terms that are required to be "
                       "equal");
        }
        // (e2) both sides' classes bound to the same literal.
        TermId lhs_node = graph.FindTermId(atom.lhs());
        TermId rhs_node = graph.FindTermId(atom.rhs());
        if (lhs_node != kInvalidTermId && rhs_node != kInvalidTermId) {
          auto l = constants.find(graph.Find(lhs_node));
          auto r = constants.find(graph.Find(rhs_node));
          if (l != constants.end() && r != constants.end() &&
              l->second == r->second) {
            return Unsat("inequality between terms both bound to the "
                         "literal " + ConstantToString(l->second));
          }
        }
        break;
      }
      case AtomKind::kNonRange:
        // (g) the terminal range class falls under an excluded class.
        for (ClassId excluded : atom.classes()) {
          if (schema.IsSubclassOf(query.RangeClassOf(atom.var()), excluded)) {
            return Unsat("variable '" + query.var_name(atom.var()) +
                         "' ranges over a descendant of excluded class '" +
                         schema.class_name(excluded) + "'");
          }
        }
        break;
      default:
        break;
    }
  }

  // (f) non-membership contradicted by a derivable membership.
  for (const Atom& atom : query.atoms()) {
    if (atom.kind() != AtomKind::kNonMembership) continue;
    auto key = std::make_tuple(graph.Find(graph.VarNode(atom.var())),
                               graph.Find(graph.VarNode(atom.set_term().var)),
                               atom.set_term().attr);
    if (memberships.count(key) > 0) {
      return Unsat("non-membership '" + query.var_name(atom.var()) +
                   " notin " + query.var_name(atom.set_term().var) + "." +
                   atom.set_term().attr + "' contradicts a derivable "
                   "membership");
    }
  }

  return SatisfiabilityResult{true, ""};
}

StatusOr<bool> CheckSatisfiableGeneral(const Schema& schema,
                                       const ConjunctiveQuery& query,
                                       size_t* witness_disjunct) {
  std::optional<EqualityGraph> graph;
  OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, query, &graph));

  // Enumerate the Prop 2.1 terminal combinations lazily, stopping at the
  // first satisfiable one. They all share the query's equality graph.
  std::vector<std::vector<ClassId>> choices(query.num_vars());
  for (VarId v = 0; v < query.num_vars(); ++v) {
    std::set<ClassId> terminals;
    for (ClassId c : query.RangeAtomOf(v)->classes()) {
      for (ClassId t : schema.TerminalDescendants(c)) terminals.insert(t);
    }
    choices[v].assign(terminals.begin(), terminals.end());
  }

  std::vector<size_t> pick(query.num_vars(), 0);
  size_t index = 0;
  while (true) {
    ConjunctiveQuery disjunct;
    for (VarId v = 0; v < query.num_vars(); ++v) {
      disjunct.AddVariable(query.var_name(v));
    }
    disjunct.set_free_var(query.free_var());
    for (const Atom& atom : query.atoms()) {
      if (atom.kind() == AtomKind::kRange) {
        disjunct.AddAtom(
            Atom::Range(atom.var(), {choices[atom.var()][pick[atom.var()]]}));
      } else {
        disjunct.AddAtom(atom);
      }
    }
    if (CheckSatisfiable(schema, disjunct, *graph).satisfiable) {
      if (witness_disjunct != nullptr) *witness_disjunct = index;
      return true;
    }
    VarId v = 0;
    for (; v < query.num_vars(); ++v) {
      if (++pick[v] < choices[v].size()) break;
      pick[v] = 0;
    }
    if (v == query.num_vars()) return false;
    ++index;
  }
}

StatusOr<ConjunctiveQuery> NormalizeTerminalQuery(const Schema& schema,
                                                  const ConjunctiveQuery& query) {
  return NormalizeTerminalQuery(schema, query, EqualityGraph::Build(query));
}

StatusOr<ConjunctiveQuery> NormalizeTerminalQuery(const Schema& schema,
                                                  const ConjunctiveQuery& query,
                                                  const EqualityGraph& graph) {
  SatisfiabilityResult sat = CheckSatisfiable(schema, query, graph);
  if (!sat.satisfiable) {
    return Status::FailedPrecondition(
        "cannot normalize an unsatisfiable query: " + sat.reason);
  }

  // The terminal class of the objects a term denotes.
  auto term_class = [&](const Term& term) -> ClassId {
    if (!term.is_attribute()) return query.RangeClassOf(term.var);
    TermId t = graph.FindTermId(term);
    if (t == kInvalidTermId) return kInvalidClassId;
    for (VarId v : graph.ClassVariables(t)) return query.RangeClassOf(v);
    return kInvalidClassId;
  };

  ConjunctiveQuery result;
  for (VarId v = 0; v < query.num_vars(); ++v) {
    result.AddVariable(query.var_name(v));
  }
  result.set_free_var(query.free_var());

  for (const Atom& atom : query.atoms()) {
    switch (atom.kind()) {
      case AtomKind::kNonRange:
        continue;  // Implied true by the satisfiability check (g).
      case AtomKind::kInequality: {
        ClassId lhs_cls = term_class(atom.lhs());
        ClassId rhs_cls = term_class(atom.rhs());
        // Distinct terminal classes have disjoint extents, and both sides
        // are non-null under any satisfying assignment (each object term is
        // equated to a ranged variable), so the atom is implied true.
        if (lhs_cls != kInvalidClassId && rhs_cls != kInvalidClassId &&
            lhs_cls != rhs_cls) {
          continue;
        }
        break;
      }
      default:
        // Non-membership atoms are never removed even when their element
        // class is disjoint from the set's element type: under 3-valued
        // logic the atom still forces y.A to be non-null (Ex 3.3), so the
        // removal would weaken the query.
        break;
    }
    result.AddAtom(atom);
  }

  // Constants extension: equivalence classes bound to the same literal
  // denote one object in every state; make the forced equalities explicit
  // so derivability (§3.1) sees them.
  std::map<std::string, VarId> constant_reps;
  std::set<TermId> merged;
  for (const Atom& atom : query.atoms()) {
    if (atom.kind() != AtomKind::kConstant) continue;
    TermId rep = graph.Find(graph.VarNode(atom.var()));
    if (!merged.insert(rep).second) continue;  // One merge per class.
    std::string key = ConstantToString(atom.constant());
    auto [it, inserted] = constant_reps.emplace(key, atom.var());
    if (!inserted && !graph.Equivalent(graph.VarNode(it->second),
                                       graph.VarNode(atom.var()))) {
      result.AddAtom(
          Atom::Equality(Term::Var(it->second), Term::Var(atom.var())));
    }
  }
  result.DeduplicateAtoms();
  return result;
}

}  // namespace oocq
