#include "core/general_minimization.h"

#include <utility>

#include "core/containment.h"
#include "core/satisfiability.h"
#include "query/well_formed.h"
#include "support/status_macros.h"

namespace oocq {

StatusOr<ConjunctiveQuery> RemoveRedundantAtoms(
    const Schema& schema, const ConjunctiveQuery& query,
    const MinimizationOptions& options, uint64_t* removed) {
  OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, query));
  if (!query.IsTerminal(schema)) {
    return Status::FailedPrecondition(
        "RemoveRedundantAtoms requires a terminal query");
  }
  OOCQ_ASSIGN_OR_RETURN(ConjunctiveQuery current,
                        NormalizeTerminalQuery(schema, query));

  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < current.atoms().size(); ++i) {
      if (current.atoms()[i].kind() == AtomKind::kRange) continue;
      ConjunctiveQuery reduced;
      for (VarId v = 0; v < current.num_vars(); ++v) {
        reduced.AddVariable(current.var_name(v));
      }
      reduced.set_free_var(current.free_var());
      for (size_t j = 0; j < current.atoms().size(); ++j) {
        if (j != i) reduced.AddAtom(current.atoms()[j]);
      }
      if (!CheckWellFormed(schema, reduced).ok()) continue;
      // Removal only weakens: redundant iff (Q - A) ⊆ Q.
      OOCQ_ASSIGN_OR_RETURN(
          bool contained,
          Contained(schema, reduced, current, options.containment, nullptr));
      if (!contained) continue;
      current = std::move(reduced);
      if (removed != nullptr) ++*removed;
      progress = true;
      break;
    }
  }
  return current;
}

}  // namespace oocq
