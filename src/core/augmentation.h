#ifndef OOCQ_CORE_AUGMENTATION_H_
#define OOCQ_CORE_AUGMENTATION_H_

#include <cstdint>
#include <functional>

#include "query/query.h"
#include "schema/schema.h"
#include "support/cancellation.h"
#include "support/status.h"

namespace oocq {

/// Limits for the augmentation enumeration of Thm 3.1. The number of
/// variable partitions grows like a product of Bell numbers per range
/// class; the cap, on consistent augmentations (the partitions that pass
/// Thm 2.2), turns a runaway enumeration into ResourceExhausted.
struct AugmentationOptions {
  uint64_t max_augmentations = 1'000'000;
};

/// Enumerates, up to closure, every *consistent augmentation* Q&S of a
/// satisfiable terminal conjunctive query (Thm 3.1): S ranges over sets of
/// equalities of Q's variables, and Q&S must stay satisfiable. Two S with
/// the same transitive closure produce equivalent augmented queries, so
/// the enumeration walks the partitions of Q's variables that merge only
/// same-range-class variables (a cross-class merge is always
/// unsatisfiable) and prunes each one that extends an unsatisfiable merge:
/// at most n² Thm 2.2 checks per consistent augmentation (n variables).
/// S = ∅ (the discrete partition) is included.
///
/// `fn` receives each augmented query (same variable ids as `query`, with
/// the S equalities appended as atoms; valid during the call only);
/// returning false stops the enumeration. The function result is true iff
/// every fn call returned true. Returns ResourceExhausted when the query
/// has more than max_augmentations consistent augmentations. `cancel`
/// (nullable) is polled before every check and every fn call, and a
/// tripped token's status is returned.
StatusOr<bool> ForEachConsistentAugmentation(
    const Schema& schema, const ConjunctiveQuery& query,
    const AugmentationOptions& options,
    const std::function<bool(const ConjunctiveQuery&)>& fn,
    const CancellationToken* cancel = nullptr);

/// The number of consistent augmentations (closures) of `query`, counted
/// with the same enumeration (used by benches and tests).
StatusOr<uint64_t> CountConsistentAugmentations(
    const Schema& schema, const ConjunctiveQuery& query,
    const AugmentationOptions& options);

}  // namespace oocq

#endif  // OOCQ_CORE_AUGMENTATION_H_
