#ifndef OOCQ_COMPILE_MASK_SCAN_H_
#define OOCQ_COMPILE_MASK_SCAN_H_

#include <compare>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/derivability.h"
#include "core/mapping.h"
#include "query/query.h"
#include "schema/schema.h"
#include "support/cancellation.h"
#include "support/resource_budget.h"
#include "support/status.h"

namespace oocq::compile {

/// Cap on the distinct signatures one scan keeps; a shape with more is
/// ResourceExhausted. The scan's array holds at most twice as many (2 MiB)
/// before it drops duplicates; bench_compile's 59,049-signature chain
/// decides in 0.24-0.4 s (docs/compilation.md).
inline constexpr uint64_t kMaxMaskSignatures = 65536;

/// One complete mapping's demands on a mask W, as pool-atom bit sets: it
/// is non-contradictory into base+W iff required ⊆ W and W ∩ forbidden = ∅.
struct MaskSignature {
  uint64_t required = 0;
  uint64_t forbidden = 0;
  auto operator<=>(const MaskSignature&) const = default;
};

/// The smallest mask W that no signature covers, or nullopt when every
/// mask is covered: a cofactor recursion after Espresso's tautology check.
/// A node fixes some bits of W and keeps the signatures they leave live.
/// It is covered once a live signature asks nothing of its free bits,
/// uncovered once none is live, and otherwise branches on the highest
/// free bit a live signature asks about, 0 before 1, so the first
/// uncovered node is the smallest uncovered mask. `cancel` (nullable) is
/// polled per node; a trip returns its status.
StatusOr<std::optional<uint64_t>> SmallestUncoveredMask(
    std::vector<MaskSignature> signatures, const CancellationToken* cancel);

/// Outcome of RunCompiledMaskScan.
struct MaskScanResult {
  /// Not ok: the abort to propagate — the token's status, a budget trip,
  /// ResourceExhausted past constraints.max_steps or kMaxMaskSignatures,
  /// or Internal when the pool breaks W-independence. No mask is decided.
  Status error = Status::Ok();
  /// When ok: true iff every mask W ⊆ T admits a non-contradictory
  /// mapping of q2 into base+W (the Thm 3.1 subset condition).
  bool contained = false;
  /// When ok and not contained: the smallest refuting W, the mask the
  /// interpreted per-mask scan stops at.
  uint64_t refuting_mask = 0;
  /// Masks decided: up to and including the refuting one, or all 2^|T|
  /// (membership_subsets; the rest are membership_subsets_skipped).
  uint64_t masks_tested = 0;
  /// Steps of the scan's one mapping search (mapping_steps).
  uint64_t mapping_steps = 0;
};

/// The production Thm 3.1 inner loop, for every pool T including the
/// empty one: instead of one mapping search per subset W, enumerate the
/// complete non-contradictory mappings of q2 into `base` once, each
/// reduced to a MaskSignature, and decide the 2^|T| masks with
/// SmallestUncoveredMask. The enumeration stops at the first mapping that
/// serves every mask (with an empty pool, the first mapping).
///
/// Sound because the pool atoms are W-independent: they reuse existing
/// terms of `base`, so only the membership index varies across base+W,
/// by exactly the included pool atoms (docs/compilation.md). The scan
/// answers Internal unless each pool atom keeps `base` satisfiable alone
/// (so base+T is, DESIGN.md §5.3) and no two add one membership entry;
/// MembershipCandidatePool guarantees both.
///
/// `base` is the analysis the pool was read off, `pool` that pool T
/// (|T| ≤ 63), `q2` the normalized RHS. `cancel` (nullable) is polled
/// every 4096 enumeration steps and per coverage node; `budget`
/// (nullable) is charged once, after the decision, one unit per mask
/// decided: what the interpreted scan charges mask by mask.
MaskScanResult RunCompiledMaskScan(const Schema& schema,
                                   const QueryAnalysis& base,
                                   const std::vector<Atom>& pool,
                                   const ConjunctiveQuery& q2,
                                   const MappingConstraints& constraints,
                                   const CancellationToken* cancel,
                                   ResourceBudget* budget);

}  // namespace oocq::compile

#endif  // OOCQ_COMPILE_MASK_SCAN_H_
