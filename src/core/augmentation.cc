#include "core/augmentation.h"

#include <vector>

#include "core/satisfiability.h"

namespace oocq {

namespace {

/// Recursive enumeration of variable partitions where a variable may only
/// join a block of its own range class, in restricted-growth order so each
/// partition is produced once. `augmented` is the query plus the prefix's
/// equalities. A join is checked when made (Thm 2.2); added atoms never
/// restore satisfiability, so an inconsistent prefix prunes its subtree.
/// Opening a block adds no atom, so every surviving prefix has a consistent
/// completion: at most n² checks per consistent augmentation.
struct PartitionEnumerator {
  const Schema& schema;
  const AugmentationOptions& options;
  const std::function<bool(const ConjunctiveQuery&)>& fn;
  const CancellationToken* cancel;
  ConjunctiveQuery augmented;

  std::vector<ClassId> block_class;   // block id -> range class
  std::vector<VarId> block_leader;    // block id -> first variable
  uint64_t enumerated = 0;       // consistent augmentations
  bool stopped = false;          // fn returned false, or `error` is set
  Status error = Status::Ok();   // the token's status, or the cap's

  /// Polls the token; false once the walk must stop.
  bool Running() {
    if (!stopped && cancel != nullptr) {
      error = cancel->Check();
      stopped = !error.ok();
    }
    return !stopped;
  }

  bool Consistent() {
    return Running() && CheckSatisfiable(schema, augmented).satisfiable;
  }

  void Recurse(VarId v) {
    if (v == augmented.num_vars()) {
      if (!Running()) return;
      if (++enumerated > options.max_augmentations) {
        error = Status::ResourceExhausted(
            "more than " + std::to_string(options.max_augmentations) +
            " consistent augmentations; raise "
            "AugmentationOptions::max_augmentations");
        stopped = true;
      } else {
        stopped = !fn(augmented);
      }
      return;
    }
    ClassId cls = augmented.RangeClassOf(v);
    // Join an existing block of the same class...
    for (size_t b = 0; b < block_class.size() && !stopped; ++b) {
      if (block_class[b] != cls) continue;
      augmented.AddAtom(
          Atom::Equality(Term::Var(block_leader[b]), Term::Var(v)));
      if (Consistent()) Recurse(v + 1);
      augmented.mutable_atoms().pop_back();
    }
    if (stopped) return;
    // ...or open a new block.
    block_class.push_back(cls);
    block_leader.push_back(v);
    Recurse(v + 1);
    block_class.pop_back();
    block_leader.pop_back();
  }
};

}  // namespace

StatusOr<bool> ForEachConsistentAugmentation(
    const Schema& schema, const ConjunctiveQuery& query,
    const AugmentationOptions& options,
    const std::function<bool(const ConjunctiveQuery&)>& fn,
    const CancellationToken* cancel) {
  PartitionEnumerator enumerator{schema, options, fn, cancel, query, {}, {}};
  // The empty prefix is the query itself.
  if (enumerator.Consistent()) enumerator.Recurse(0);
  if (!enumerator.error.ok()) return enumerator.error;
  return !enumerator.stopped;
}

StatusOr<uint64_t> CountConsistentAugmentations(
    const Schema& schema, const ConjunctiveQuery& query,
    const AugmentationOptions& options) {
  uint64_t count = 0;
  StatusOr<bool> result = ForEachConsistentAugmentation(
      schema, query, options, [&count](const ConjunctiveQuery&) {
        ++count;
        return true;
      });
  if (!result.ok()) return result.status();
  return count;
}

}  // namespace oocq
