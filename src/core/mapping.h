#ifndef OOCQ_CORE_MAPPING_H_
#define OOCQ_CORE_MAPPING_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/derivability.h"
#include "query/query.h"
#include "schema/schema.h"
#include "support/cancellation.h"
#include "support/status.h"

namespace oocq {

/// Constraints on the non-contradictory variable mapping search.
struct MappingConstraints {
  /// A target variable the image must avoid (used by minimization to force
  /// a non-bijective self-mapping). kInvalidVarId means unconstrained.
  VarId forbidden_target = kInvalidVarId;
  /// The image of the source free variable must be equivalent (in the
  /// target's E(Q)) to this target variable — this realizes condition (i)
  /// of Thm 3.1, τ(μ(t2)) = τ(t1) for every standardization function τ.
  /// kInvalidVarId defaults to the target query's free variable.
  VarId free_target = kInvalidVarId;
  /// Backtracking-step budget; exceeded searches report `exhausted`.
  uint64_t max_steps = 10'000'000;
};

/// Result of a mapping search.
struct MappingResult {
  /// The witness image (source VarId -> target VarId): the mapping the
  /// search stopped at, when one did.
  std::optional<std::vector<VarId>> image;
  /// True when the search hit max_steps before deciding; `image` empty
  /// then means "unknown", not "none exists".
  bool exhausted = false;
  /// The token's status when cancellation stopped the search before it
  /// decided; ok otherwise.
  Status cancelled = Status::Ok();
  /// Backtracking steps actually used (for the complexity benches).
  uint64_t steps = 0;

  bool found() const { return image.has_value(); }
};

/// Receives one complete mapping's demands on a membership subset W of
/// the pool, as pool-atom bit sets (bit i is pool atom i): the mapping is
/// non-contradictory into target&W iff required ⊆ W and W ∩ forbidden = ∅.
/// Returns false to stop the search at this mapping.
using MappingVisitor =
    std::function<bool(uint64_t required, uint64_t forbidden)>;

/// Enumerates the non-contradictory variable mappings μ from `from` to the
/// analyzed target query (§3.1), in backtracking order, and hands each
/// complete one to `visit` until it returns false: for every positive atom
/// A of `from`, target ⊢ μ(A); for every inequality or non-membership atom
/// A, the target does not contradict μ(A); and μ satisfies condition (i)
/// through MappingConstraints::free_target.
///
/// `from` must be a well-formed terminal conjunctive query; candidates for
/// each source variable are the target variables with the identical range
/// class (derivability of range atoms is syntactic presence). Non-range
/// atoms of `from` are checked statically against the image classes.
///
/// `pool` is Thm 3.1's T for the target, or empty: at most 63 membership
/// atoms over existing terms of the target, none derivable, no two adding
/// the same (element class, set-variable class, attribute) entry. Adding
/// W ⊆ T to the target changes only its membership index (the pool atoms
/// are W-independent, docs/compilation.md), so one enumeration serves
/// every target&W: a membership atom of `from` whose image only pool atom
/// i derives passes with bit i required, a non-membership atom whose
/// image pool atom i would contradict passes with bit i forbidden, and a
/// branch that requires and forbids one bit serves no W and is pruned.
/// With an empty pool every mapping's demands are (0, 0).
///
/// `cancel` (nullable) is polled every 4096 steps.
MappingResult EnumerateNonContradictoryMappings(
    const Schema& schema, const ConjunctiveQuery& from,
    const QueryAnalysis& target, const MappingConstraints& constraints,
    const std::vector<Atom>& pool, const CancellationToken* cancel,
    const MappingVisitor& visit);

/// The first mapping EnumerateNonContradictoryMappings finds into the
/// target itself (no pool, no cancellation).
MappingResult FindNonContradictoryMapping(const Schema& schema,
                                          const ConjunctiveQuery& from,
                                          const QueryAnalysis& target,
                                          const MappingConstraints& constraints);

}  // namespace oocq

#endif  // OOCQ_CORE_MAPPING_H_
