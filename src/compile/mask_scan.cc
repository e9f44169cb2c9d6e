#include "compile/mask_scan.h"

#include <algorithm>
#include <bit>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "support/trace.h"

namespace oocq::compile {

namespace {

/// SmallestUncoveredMask's recursion. A node's live signatures are a
/// range of `signatures`, which each node reorders in place so that both
/// of its children's live sets are subranges of its own.
struct CofactorSearch {
  std::vector<MaskSignature> signatures;
  const CancellationToken* cancel = nullptr;
  uint64_t uncovered = 0;
  Status status = Status::Ok();

  /// Whether signatures [lo, hi) cover every mask of the node: 1 on the
  /// bits of `fixed`, anything on the bits of `free`, 0 elsewhere. False
  /// with `uncovered` set, or with `status` set when the token tripped.
  bool Covered(size_t lo, size_t hi, uint64_t fixed, uint64_t free) {
    if (cancel != nullptr && !(status = cancel->Check()).ok()) return false;
    if (lo == hi) {
      uncovered = fixed;
      return false;
    }
    uint64_t asked = 0;
    for (size_t i = lo; i < hi; ++i) {
      const uint64_t demands =
          (signatures[i].required | signatures[i].forbidden) & free;
      if (demands == 0) return true;
      asked |= demands;
    }
    const uint64_t bit = uint64_t{1} << (63 - std::countl_zero(asked));
    free &= bit - 1;
    // [lo, mid) require the bit, so only the 1-branch keeps them. The
    // 0-branch reorders [mid, hi); regroup the signatures there that do
    // not forbid the bit at its front, making [lo, end) the 1-branch.
    const auto at = [this](size_t i) { return signatures.begin() + i; };
    const size_t mid =
        std::partition(at(lo), at(hi), [bit](const MaskSignature& s) {
          return (s.required & bit) != 0;
        }) - at(0);
    if (!Covered(mid, hi, fixed, free)) return false;
    const size_t end =
        std::partition(at(mid), at(hi), [bit](const MaskSignature& s) {
          return (s.forbidden & bit) == 0;
        }) - at(0);
    return Covered(lo, end, fixed | bit, free);
  }
};

}  // namespace

StatusOr<std::optional<uint64_t>> SmallestUncoveredMask(
    std::vector<MaskSignature> signatures, const CancellationToken* cancel) {
  // A signature that requires and forbids a bit covers nothing, but would
  // join that bit's 1-branch (the scan's enumeration never hands one over).
  std::erase_if(signatures, [](const MaskSignature& s) {
    return (s.required & s.forbidden) != 0;
  });
  CofactorSearch search{std::move(signatures), cancel};
  if (search.Covered(0, search.signatures.size(), 0, ~uint64_t{0})) {
    return std::optional<uint64_t>();
  }
  if (!search.status.ok()) return search.status;
  return std::optional<uint64_t>(search.uncovered);
}

MaskScanResult RunCompiledMaskScan(const Schema& schema,
                                   const QueryAnalysis& base,
                                   const std::vector<Atom>& pool,
                                   const ConjunctiveQuery& q2,
                                   const MappingConstraints& constraints,
                                   const CancellationToken* cancel,
                                   ResourceBudget* budget) {
  OOCQ_TRACE_SPAN(span, "CompiledMaskScan");
  const uint64_t total = uint64_t{1} << pool.size();
  MaskScanResult result;
  auto fail = [&result](Status error) {
    result.error = std::move(error);
    return result;
  };

  // W-independence gate, part 1: each pool atom satisfiable alone makes
  // base+T, and so every base+W, satisfiable (the atoms add no equality
  // edges), which entitles the scan to skip the per-mask CheckSatisfiable.
  for (const Atom& atom : pool) {
    if (atom.kind() != AtomKind::kMembership ||
        !base.NotContradictsMembership(atom.var(), atom.set_term().var,
                                       atom.set_term().attr)) {
      return fail(Status::Internal(
          "compiled subset scan: a pool atom contradicts the base query"));
    }
  }
  // Part 2: each pool atom adds its own entry (element rep, set-var rep,
  // attr) to base+W's membership index, so a signature bit names one atom.
  const EqualityGraph& tgraph = base.graph();
  std::set<std::tuple<TermId, TermId, std::string>> entries;
  for (const Atom& atom : pool) {
    if (!entries
             .emplace(tgraph.Find(tgraph.VarNode(atom.var())),
                      tgraph.Find(tgraph.VarNode(atom.set_term().var)),
                      atom.set_term().attr)
             .second) {
      return fail(Status::Internal(
          "compiled subset scan: two pool atoms add one membership entry"));
    }
  }

  // One enumeration of every complete mapping of q2 into base, each
  // reduced to the pool bits it demands of W. Duplicates are dropped
  // whenever the array reaches twice the cap, and once at the end.
  std::vector<MaskSignature> signatures;
  const auto distinct_within_cap = [&signatures] {
    std::ranges::sort(signatures);
    signatures.erase(std::ranges::unique(signatures).begin(),
                     signatures.end());
    return signatures.size() <= kMaxMaskSignatures;
  };
  bool serves_all = false;
  MappingResult enumeration = EnumerateNonContradictoryMappings(
      schema, q2, base, constraints, pool, cancel,
      [&](uint64_t required, uint64_t forbidden) {
        // A mapping that asks nothing of W serves every mask: stop there.
        serves_all = (required | forbidden) == 0;
        if (serves_all) return false;
        signatures.push_back({required, forbidden});
        return signatures.size() < 2 * kMaxMaskSignatures ||
               distinct_within_cap();
      });
  const bool within_cap = distinct_within_cap();
  result.mapping_steps = enumeration.steps;
  span.Arg("signatures", static_cast<uint64_t>(signatures.size()))
      .Arg("steps", enumeration.steps);
  if (!enumeration.cancelled.ok()) return fail(enumeration.cancelled);
  if (enumeration.exhausted) {
    return fail(Status::ResourceExhausted(
        "mapping search exceeded ContainmentOptions::max_mapping_steps"));
  }
  if (!within_cap) {
    return fail(Status::ResourceExhausted(
        "more than " + std::to_string(kMaxMaskSignatures) +
        " distinct pool signatures (the compiled subset scan's memory cap)"));
  }

  StatusOr<std::optional<uint64_t>> uncovered = std::optional<uint64_t>();
  if (!serves_all) {
    uncovered = SmallestUncoveredMask(std::move(signatures), cancel);
  }
  if (!uncovered.ok()) return fail(uncovered.status());
  // Decide first, then charge the masks decided in one go: the budget
  // trips iff the oracle's mask-by-mask charge would.
  const uint64_t decided = uncovered->has_value() ? **uncovered + 1 : total;
  if (budget != nullptr) {
    if (Status charged = budget->ChargeSubsetWork(decided); !charged.ok()) {
      return fail(std::move(charged));
    }
  }
  result.contained = !uncovered->has_value();
  result.refuting_mask = uncovered->value_or(0);
  result.masks_tested = decided;
  span.Arg("contained", result.contained ? "true" : "false");
  return result;
}

}  // namespace oocq::compile
