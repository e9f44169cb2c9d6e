#ifndef OOCQ_COMPILE_MASK_SCAN_H_
#define OOCQ_COMPILE_MASK_SCAN_H_

#include <cstdint>
#include <vector>

#include "core/derivability.h"
#include "core/mapping.h"
#include "query/query.h"
#include "schema/schema.h"
#include "support/cancellation.h"
#include "support/resource_budget.h"
#include "support/status.h"

namespace oocq::compile {

/// Cap on the distinct (required, forbidden) signatures one scan
/// collects; a shape with more falls back to the interpreted scan.
inline constexpr uint64_t kMaxMaskSignatures = 4096;

/// Outcome of RunCompiledMaskScan.
struct MaskScanResult {
  /// False: the scan could not take the compiled path (unsupported shape,
  /// enumeration overran a cap, or the compile/exec failpoint fired) —
  /// the caller must fall back to the interpreted per-mask scan. Nothing
  /// below is meaningful then; no budget was charged.
  bool decided = false;
  /// When decided and not ok: the retryable abort (cancellation, budget)
  /// to propagate, exactly as the interpreted scan would surface it.
  Status error = Status::Ok();
  /// When decided and ok: the Thm 3.1 subset condition — true iff every
  /// mask W ⊆ T admits a non-contradictory mapping of q2 into base+W.
  bool contained = false;
  /// When decided, ok and not contained: the first uncovered mask — the
  /// smallest refuting W, the same one the interpreted scan stops at.
  uint64_t refuting_mask = 0;

  // Work counters, unit-compatible with ContainmentStats:
  /// masks actually decided (maps to membership_subsets),
  uint64_t masks_tested = 0;
  /// masks enumerated but not decided — after an abort or a refutation
  /// (maps to membership_subsets_skipped),
  uint64_t masks_skipped = 0;
  /// backtracking steps of the mapping enumeration (maps to
  /// mapping_steps; the whole scan is one search, mapping_searches += 1).
  uint64_t mapping_steps = 0;
};

/// The compiled form of the Thm 3.1 inner loop: instead of one mapping
/// search per subset W of the membership-candidate pool T (2^|T| searches),
/// enumerate every complete non-contradictory mapping of q2 into `base`
/// ONCE (EnumerateNonContradictoryMappings, core/mapping.h), which reduces
/// each to a signature (required, forbidden) of pool-atom bit sets; a mask
/// W then admits a mapping iff some signature has required ⊆ W and
/// W ∩ forbidden = ∅, which a 64-masks-per-word coverage scan checks
/// without further mapping work.
///
/// Sound because the pool atoms are W-independent: they reuse existing
/// terms of `base`, so every base+W shares base's equality graph, range
/// classes and set-term/constant indices — only the membership index
/// varies, and exactly by the included pool atoms (docs/compilation.md).
/// The function verifies its own preconditions and reports decided=false
/// rather than guess when any fails: base+T must be satisfiable, which it
/// checks atom by atom on `base` (QueryAnalysis::NotContradictsMembership:
/// base+T is satisfiable iff each pool atom is alone, DESIGN.md §5.3),
/// and the pool signatures must be distinct. The enumeration also gives
/// up (decided=false) past constraints.max_steps or kMaxMaskSignatures.
///
/// `base` is the analysis of the target query — the augmented Q1 of the
/// containment dispatch, the analysis Contained() read the pool off;
/// `pool` must be that candidate pool T (|T| ≤ 63, the ceiling
/// Contained() enforces); `q2` the normalized RHS. `cancel` (nullable) is
/// polled on entry, every 4096 enumeration steps and per 64-mask block;
/// `budget` (nullable) is charged one unit per mask covered-or-refuted,
/// in 64-mask blocks — the same total the interpreted scan charges mask
/// by mask.
MaskScanResult RunCompiledMaskScan(const Schema& schema,
                                   const QueryAnalysis& base,
                                   const std::vector<Atom>& pool,
                                   const ConjunctiveQuery& q2,
                                   const MappingConstraints& constraints,
                                   const CancellationToken* cancel,
                                   ResourceBudget* budget);

}  // namespace oocq::compile

#endif  // OOCQ_COMPILE_MASK_SCAN_H_
