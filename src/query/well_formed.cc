#include "query/well_formed.h"

#include <algorithm>
#include <optional>
#include <set>

#include "query/equality_graph.h"
#include "support/status_macros.h"

namespace oocq {

namespace {

Status CheckTermVars(const ConjunctiveQuery& query, const Atom& atom) {
  auto check = [&query](const Term& term) -> Status {
    if (term.var >= query.num_vars()) {
      return Status::InvalidArgument("atom references undeclared variable id " +
                                     std::to_string(term.var));
    }
    return Status::Ok();
  };
  OOCQ_RETURN_IF_ERROR(check(atom.lhs()));
  OOCQ_RETURN_IF_ERROR(check(atom.rhs()));
  return Status::Ok();
}

}  // namespace

Status ValidateStructure(const Schema& schema, const ConjunctiveQuery& query) {
  if (query.num_vars() == 0) {
    return Status::InvalidArgument("query has no variables");
  }
  if (query.free_var() >= query.num_vars()) {
    return Status::InvalidArgument("query has no valid free variable");
  }
  for (const Atom& atom : query.atoms()) {
    OOCQ_RETURN_IF_ERROR(CheckTermVars(query, atom));
    switch (atom.kind()) {
      case AtomKind::kRange:
      case AtomKind::kNonRange:
        if (atom.classes().empty()) {
          return Status::InvalidArgument(
              "range atom with empty class disjunction on variable '" +
              query.var_name(atom.var()) + "'");
        }
        for (ClassId c : atom.classes()) {
          if (c >= schema.num_classes()) {
            return Status::InvalidArgument("range atom references class id " +
                                           std::to_string(c) +
                                           " outside the schema");
          }
        }
        break;
      case AtomKind::kEquality:
      case AtomKind::kInequality:
      case AtomKind::kConstant:
        break;
      case AtomKind::kMembership:
      case AtomKind::kNonMembership:
        if (atom.lhs().is_attribute() || !atom.rhs().is_attribute()) {
          return Status::InvalidArgument(
              "membership atom must relate a variable to a set term y.A");
        }
        break;
    }
  }
  return Status::Ok();
}

Status CheckWellFormed(const Schema& schema, const ConjunctiveQuery& query) {
  std::optional<EqualityGraph> graph;
  return CheckWellFormed(schema, query, &graph);
}

Status CheckWellFormed(const Schema& schema, const ConjunctiveQuery& query,
                       std::optional<EqualityGraph>* graph_out) {
  graph_out->reset();
  OOCQ_RETURN_IF_ERROR(ValidateStructure(schema, query));

  // (iii) exactly one range atom per variable.
  for (VarId v = 0; v < query.num_vars(); ++v) {
    int count = query.CountRangeAtomsOf(v);
    if (count != 1) {
      return Status::InvalidArgument(
          "variable '" + query.var_name(v) + "' has " + std::to_string(count) +
          " range atoms; well-formed queries require exactly one");
    }
  }

  const EqualityGraph& graph = graph_out->emplace(EqualityGraph::Build(query));
  for (TermId rep : graph.ClassRepresentatives()) {
    // (i) object xor set.
    if (graph.IsObjectTerm(rep) && graph.IsSetTerm(rep)) {
      return Status::InvalidArgument(
          "term equivalence class used both as an object and as a set");
    }
    // (ii) object attribute terms are equated to a variable.
    if (graph.IsObjectTerm(rep) && graph.ClassVariables(rep).empty()) {
      const Term& term = graph.term(graph.ClassMembers(rep).front());
      return Status::InvalidArgument(
          "object term '" + query.var_name(term.var) + "." + term.attr +
          "' is not equated to any variable");
    }
  }
  return Status::Ok();
}

StatusOr<ConjunctiveQuery> NormalizeToWellFormed(const Schema& schema,
                                                 const ConjunctiveQuery& query) {
  OOCQ_RETURN_IF_ERROR(ValidateStructure(schema, query));
  ConjunctiveQuery result = query;

  const std::vector<ClassId> all_terminals =
      schema.TerminalClasses(/*include_builtins=*/true);

  // (iii): keep the first range atom of each variable; each extra one is
  // moved to a fresh variable equated with the original (the paper's
  // remark after §2.3).
  {
    std::vector<int> seen(result.num_vars(), 0);
    std::vector<Atom> extra;
    for (Atom& atom : result.mutable_atoms()) {
      if (atom.kind() != AtomKind::kRange) continue;
      VarId v = atom.var();
      if (seen[v]++ == 0) continue;
      VarId fresh = result.AddVariable(result.var_name(v) + "'" +
                                       std::to_string(seen[v] - 1));
      extra.push_back(Atom::Equality(Term::Var(fresh), Term::Var(v)));
      atom = Atom::Range(fresh, atom.classes());
    }
    for (Atom& atom : extra) result.AddAtom(std::move(atom));
  }
  // (iii): variables without a range atom receive one. Rather than the
  // blanket all-terminal-classes default, infer a narrower range from the
  // equality atoms the variable participates in (`v = u.A` bounds v by
  // A's type; `v = w` bounds v by w's range), iterating to a fixpoint so
  // desugared path chains (`_p1 = x.A & _p2 = _p1.B`) resolve level by
  // level. Unresolvable variables fall back to all terminal classes.
  {
    auto terminal_range = [&](VarId v) -> std::vector<ClassId> {
      const Atom* range = result.RangeAtomOf(v);
      if (range == nullptr) return {};
      std::set<ClassId> terminals;
      for (ClassId c : range->classes()) {
        for (ClassId t : schema.TerminalDescendants(c)) terminals.insert(t);
      }
      return std::vector<ClassId>(terminals.begin(), terminals.end());
    };
    // Candidates implied by `v = u.A` when u's range is known.
    auto attr_bound = [&](VarId u, const std::string& attr)
        -> std::optional<std::vector<ClassId>> {
      if (result.CountRangeAtomsOf(u) == 0) return std::nullopt;
      std::set<ClassId> candidates;
      for (ClassId cu : terminal_range(u)) {
        const TypeExpr* type = schema.FindAttribute(cu, attr);
        if (type == nullptr || type->is_set()) continue;
        for (ClassId t : schema.TerminalDescendants(type->cls())) {
          candidates.insert(t);
        }
      }
      return std::vector<ClassId>(candidates.begin(), candidates.end());
    };

    bool progress = true;
    while (progress) {
      progress = false;
      for (VarId v = 0; v < result.num_vars(); ++v) {
        if (result.CountRangeAtomsOf(v) != 0) continue;
        std::optional<std::vector<ClassId>> inferred;
        auto merge = [&inferred](std::vector<ClassId> bound) {
          if (!inferred.has_value()) {
            inferred = std::move(bound);
            return;
          }
          std::vector<ClassId> intersection;
          std::set_intersection(inferred->begin(), inferred->end(),
                                bound.begin(), bound.end(),
                                std::back_inserter(intersection));
          inferred = std::move(intersection);
        };
        for (const Atom& atom : result.atoms()) {
          // A constant binding pins the variable's class outright.
          if (atom.kind() == AtomKind::kConstant && atom.var() == v) {
            merge({ConstantClassOf(atom.constant())});
            continue;
          }
          if (atom.kind() != AtomKind::kEquality) continue;
          for (const auto& [self, other] :
               {std::make_pair(atom.lhs(), atom.rhs()),
                std::make_pair(atom.rhs(), atom.lhs())}) {
            if (self.is_attribute() || self.var != v) continue;
            if (other.is_attribute()) {
              std::optional<std::vector<ClassId>> bound =
                  attr_bound(other.var, other.attr);
              if (bound.has_value()) merge(*std::move(bound));
            } else if (other.var != v &&
                       result.CountRangeAtomsOf(other.var) != 0) {
              merge(terminal_range(other.var));
            }
          }
        }
        if (inferred.has_value() && !inferred->empty()) {
          result.AddAtom(Atom::Range(v, *std::move(inferred)));
          progress = true;
        }
      }
    }
    for (VarId v = 0; v < result.num_vars(); ++v) {
      if (result.CountRangeAtomsOf(v) == 0) {
        result.AddAtom(Atom::Range(v, all_terminals));
      }
    }
  }

  // (ii): equate stranded object attribute terms to fresh variables whose
  // range is the set of terminal classes the attribute's type permits.
  EqualityGraph graph = EqualityGraph::Build(result);
  std::vector<Atom> additions;
  std::vector<std::pair<VarId, std::vector<ClassId>>> fresh_ranges;
  for (TermId rep : graph.ClassRepresentatives()) {
    if (!graph.IsObjectTerm(rep) || graph.IsSetTerm(rep)) continue;
    if (!graph.ClassVariables(rep).empty()) continue;
    const Term& term = graph.term(graph.ClassMembers(rep).front());

    // Narrow the fresh variable's range via the attribute's possible types.
    std::set<ClassId> candidates;
    const Atom* owner_range = result.RangeAtomOf(term.var);
    if (owner_range != nullptr) {
      for (ClassId c : owner_range->classes()) {
        for (ClassId terminal : schema.TerminalDescendants(c)) {
          const TypeExpr* type = schema.FindAttribute(terminal, term.attr);
          if (type == nullptr || type->is_set()) continue;
          for (ClassId t : schema.TerminalDescendants(type->cls())) {
            candidates.insert(t);
          }
        }
      }
    }
    std::vector<ClassId> range(candidates.begin(), candidates.end());
    if (range.empty()) range = all_terminals;

    VarId fresh = result.AddVariable(
        std::string("v").append(std::to_string(result.num_vars())));
    additions.push_back(Atom::Equality(Term::Var(fresh), term));
    fresh_ranges.emplace_back(fresh, std::move(range));
  }
  for (Atom& atom : additions) result.AddAtom(std::move(atom));
  for (auto& [v, range] : fresh_ranges) {
    result.AddAtom(Atom::Range(v, std::move(range)));
  }

  OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, result));
  return result;
}

}  // namespace oocq
