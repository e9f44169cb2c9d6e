#ifndef OOCQ_TESTS_RANDOM_QUERY_H_
#define OOCQ_TESTS_RANDOM_QUERY_H_

#include <cstddef>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "query/query.h"
#include "schema/schema.h"

namespace oocq::testing {

/// Knobs for the seeded random query generator used by the property
/// tests. Generated queries are structurally valid; they may be
/// unsatisfiable or (rarely) ill-formed — callers filter with
/// CheckWellFormed / CheckSatisfiable.
struct RandomQueryParams {
  uint32_t max_vars = 4;
  uint32_t max_extra_atoms = 4;
  /// Also emit inequality, non-membership and non-range atoms.
  bool allow_negative = false;
  /// Range atoms name single terminal classes only; otherwise any class
  /// (or a two-class disjunction) may appear.
  bool terminal_only = true;
  /// Include the built-in primitive classes in the range-class pool.
  bool use_builtins = false;
  /// Emit kConstant atoms (small literal pool) on primitive-ranged
  /// variables.
  bool use_constants = false;
};

/// Generates a random conjunctive query over `schema`.
inline ConjunctiveQuery GenerateRandomQuery(const Schema& schema,
                                            std::mt19937_64& rng,
                                            const RandomQueryParams& params) {
  auto pick = [&rng](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
  };

  std::vector<ClassId> terminal_pool =
      schema.TerminalClasses(params.use_builtins);
  std::vector<ClassId> any_pool =
      params.terminal_only ? terminal_pool : schema.UserClasses();
  if (!params.terminal_only && params.use_builtins) {
    for (ClassId c = 0; c < kNumBuiltinClasses; ++c) any_pool.push_back(c);
  }

  ConjunctiveQuery query;
  const uint32_t num_vars =
      1 + static_cast<uint32_t>(pick(params.max_vars));
  for (uint32_t v = 0; v < num_vars; ++v) {
    query.AddVariable("v" + std::to_string(v));
  }

  // Range atoms: exactly one per variable (well-formedness (iii)).
  std::vector<ClassId> var_class(num_vars);
  for (VarId v = 0; v < num_vars; ++v) {
    if (params.terminal_only) {
      var_class[v] = terminal_pool[pick(terminal_pool.size())];
      query.AddAtom(Atom::Range(v, {var_class[v]}));
    } else {
      ClassId first = any_pool[pick(any_pool.size())];
      var_class[v] = first;
      if (pick(4) == 0 && any_pool.size() > 1) {
        ClassId second = any_pool[pick(any_pool.size())];
        query.AddAtom(Atom::Range(v, {first, second}));
      } else {
        query.AddAtom(Atom::Range(v, {first}));
      }
    }
  }

  // Attribute pools per variable, split by kind. For non-terminal ranges
  // use the first range class's attributes (good enough for generation).
  auto object_attrs = [&](VarId v) {
    std::vector<std::string> names;
    for (const AttributeDef& attr :
         schema.class_info(var_class[v]).all_attributes) {
      if (!attr.type.is_set()) names.push_back(attr.name);
    }
    return names;
  };
  auto set_attrs = [&](VarId v) {
    std::vector<std::string> names;
    for (const AttributeDef& attr :
         schema.class_info(var_class[v]).all_attributes) {
      if (attr.type.is_set()) names.push_back(attr.name);
    }
    return names;
  };

  const uint32_t extra = static_cast<uint32_t>(pick(params.max_extra_atoms + 1));
  for (uint32_t i = 0; i < extra; ++i) {
    VarId a = static_cast<VarId>(pick(num_vars));
    VarId b = static_cast<VarId>(pick(num_vars));
    if (params.use_constants && pick(4) == 0) {
      // Bind a primitive-ranged variable to a small literal.
      switch (var_class[a]) {
        case kIntClassId:
          query.AddAtom(Atom::Constant(
              a, static_cast<int64_t>(pick(3))));
          continue;
        case kRealClassId:
          query.AddAtom(Atom::Constant(a, 0.5 + pick(3)));
          continue;
        case kStringClassId:
          query.AddAtom(Atom::Constant(a, "k" + std::to_string(pick(3))));
          continue;
        default:
          break;  // Fall through to a structural atom.
      }
    }
    switch (pick(params.allow_negative ? 6 : 3)) {
      case 0:  // var = var
        query.AddAtom(Atom::Equality(Term::Var(a), Term::Var(b)));
        break;
      case 1: {  // var = var.A
        std::vector<std::string> names = object_attrs(b);
        if (names.empty()) break;
        query.AddAtom(Atom::Equality(
            Term::Var(a), Term::Attr(b, names[pick(names.size())])));
        break;
      }
      case 2: {  // var in var.S
        std::vector<std::string> names = set_attrs(b);
        if (names.empty()) break;
        query.AddAtom(Atom::Membership(a, b, names[pick(names.size())]));
        break;
      }
      case 3:  // var != var
        if (a != b) {
          query.AddAtom(Atom::Inequality(Term::Var(a), Term::Var(b)));
        }
        break;
      case 4: {  // var notin var.S
        std::vector<std::string> names = set_attrs(b);
        if (names.empty()) break;
        query.AddAtom(Atom::NonMembership(a, b, names[pick(names.size())]));
        break;
      }
      case 5: {  // var notin C1 | C2 (normalization drops it when implied)
        std::vector<ClassId> classes = {any_pool[pick(any_pool.size())]};
        if (pick(3) == 0) classes.push_back(any_pool[pick(any_pool.size())]);
        query.AddAtom(Atom::NonRange(a, std::move(classes)));
        break;
      }
    }
  }
  return query;
}

/// Terminal `base` with each non-range atom dropped with probability 1/3
/// and one to three membership or non-membership atoms added, each over a
/// set term `base` already has and an element variable of a fitting
/// class — so that Thm 3.1's pool over `base` decides mappings of the
/// result. Nullopt when `base` has no set term. Like GenerateRandomQuery,
/// the result may be ill-formed or unsatisfiable.
inline std::optional<ConjunctiveQuery> PerturbSetAtoms(
    const Schema& schema, const ConjunctiveQuery& base, std::mt19937_64& rng) {
  auto pick = [&rng](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
  };
  std::vector<Term> set_terms;
  for (const Atom& atom : base.atoms()) {
    if (atom.kind() == AtomKind::kMembership ||
        atom.kind() == AtomKind::kNonMembership) {
      set_terms.push_back(atom.set_term());
    }
  }
  if (set_terms.empty()) return std::nullopt;
  ConjunctiveQuery query = base;
  std::vector<Atom>& atoms = query.mutable_atoms();
  for (size_t i = atoms.size(); i-- > 0;) {
    if (atoms[i].kind() != AtomKind::kRange && pick(3) == 0) {
      atoms.erase(atoms.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  for (size_t added = 1 + pick(3); added > 0; --added) {
    const Term& set = set_terms[pick(set_terms.size())];
    const TypeExpr* type =
        schema.FindAttribute(base.RangeClassOf(set.var), set.attr);
    std::vector<VarId> elements;
    for (VarId v = 0; v < base.num_vars(); ++v) {
      if (type == nullptr || !type->is_set() ||
          schema.IsSubclassOf(base.RangeClassOf(v), type->cls())) {
        elements.push_back(v);
      }
    }
    if (elements.empty()) continue;
    const VarId element = elements[pick(elements.size())];
    query.AddAtom(pick(2) == 0
                      ? Atom::Membership(element, set.var, set.attr)
                      : Atom::NonMembership(element, set.var, set.attr));
  }
  return query;
}

}  // namespace oocq::testing

#endif  // OOCQ_TESTS_RANDOM_QUERY_H_
