#ifndef OOCQ_STATE_EVAL_INTERNAL_H_
#define OOCQ_STATE_EVAL_INTERNAL_H_

// The tree walker's 3-valued-logic atom evaluation (state/evaluation.cc),
// the reference semantics the compiled VM (compile/vm.h) is pinned to.
// Internal header; not part of the public API.

#include <optional>
#include <vector>

#include "query/atom.h"
#include "state/state.h"

namespace oocq::eval_internal {

/// Three-valued truth.
enum class Truth { kTrue, kFalse, kUnknown };

/// Evaluates a term to an object, if it denotes one: nullopt when the
/// value is Λ, the attribute is inapplicable, or the slot holds a set.
inline std::optional<Oid> EvalObjectTerm(const State& state,
                                         const std::vector<Oid>& assignment,
                                         const Term& term) {
  Oid base = assignment[term.var];
  if (!term.is_attribute()) return base;
  const Value* value = state.GetAttribute(base, term.attr);
  if (value == nullptr || value->kind() != Value::Kind::kRef) {
    return std::nullopt;
  }
  return value->ref();
}

/// Truth value of one atom under a (fully bound, for this atom)
/// assignment, per the paper's 3-valued logic.
inline Truth EvalAtom(const State& state, const std::vector<Oid>& assignment,
                      const Atom& atom) {
  switch (atom.kind()) {
    case AtomKind::kRange: {
      Oid oid = assignment[atom.var()];
      for (ClassId c : atom.classes()) {
        if (state.IsMember(oid, c)) return Truth::kTrue;
      }
      return Truth::kFalse;
    }
    case AtomKind::kNonRange: {
      Oid oid = assignment[atom.var()];
      for (ClassId c : atom.classes()) {
        if (state.IsMember(oid, c)) return Truth::kFalse;
      }
      return Truth::kTrue;
    }
    case AtomKind::kEquality:
    case AtomKind::kInequality: {
      std::optional<Oid> lhs = EvalObjectTerm(state, assignment, atom.lhs());
      std::optional<Oid> rhs = EvalObjectTerm(state, assignment, atom.rhs());
      if (!lhs.has_value() || !rhs.has_value()) return Truth::kUnknown;
      bool equal = *lhs == *rhs;
      if (atom.kind() == AtomKind::kEquality) {
        return equal ? Truth::kTrue : Truth::kFalse;
      }
      return equal ? Truth::kFalse : Truth::kTrue;
    }
    case AtomKind::kMembership:
    case AtomKind::kNonMembership: {
      Oid element = assignment[atom.var()];
      const Value* value = state.GetAttribute(
          assignment[atom.set_term().var], atom.set_term().attr);
      if (value == nullptr || value->kind() != Value::Kind::kSet) {
        return Truth::kUnknown;  // Λ or inapplicable/object-typed slot.
      }
      bool member = value->Contains(element);
      if (atom.kind() == AtomKind::kMembership) {
        return member ? Truth::kTrue : Truth::kFalse;
      }
      return member ? Truth::kFalse : Truth::kTrue;
    }
    case AtomKind::kConstant: {
      // True iff the bound object is the primitive with this payload.
      const State::Payload& payload = state.payload(assignment[atom.var()]);
      const ConstantValue& wanted = atom.constant();
      if (const int64_t* i = std::get_if<int64_t>(&payload)) {
        const int64_t* w = std::get_if<int64_t>(&wanted);
        return w != nullptr && *w == *i ? Truth::kTrue : Truth::kFalse;
      }
      if (const double* d = std::get_if<double>(&payload)) {
        const double* w = std::get_if<double>(&wanted);
        return w != nullptr && *w == *d ? Truth::kTrue : Truth::kFalse;
      }
      if (const std::string* s = std::get_if<std::string>(&payload)) {
        const std::string* w = std::get_if<std::string>(&wanted);
        return w != nullptr && *w == *s ? Truth::kTrue : Truth::kFalse;
      }
      return Truth::kFalse;  // A user object never equals a literal.
    }
  }
  return Truth::kUnknown;
}

}  // namespace oocq::eval_internal

#endif  // OOCQ_STATE_EVAL_INTERNAL_H_
