#include "compile/mask_scan.h"

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "support/failpoint.h"
#include "support/trace.h"

namespace oocq::compile {

namespace {

size_t LowestZeroBit(uint64_t word) {
  size_t i = 0;
  while ((word >> i) & 1) ++i;
  return i;
}

}  // namespace

MaskScanResult RunCompiledMaskScan(const Schema& schema,
                                   const QueryAnalysis& base,
                                   const std::vector<Atom>& pool,
                                   const ConjunctiveQuery& q2,
                                   const MappingConstraints& constraints,
                                   const CancellationToken* cancel,
                                   ResourceBudget* budget) {
  OOCQ_TRACE_SPAN(span, "CompiledMaskScan");
  MaskScanResult result;
  const size_t t = pool.size();
  if (t == 0) return result;  // nothing to gain
  // Chaos hook: force the interpreted fallback mid-request. Never an
  // error to the caller — the fallback is the behavior under test.
  if (Status chaos = Failpoints::Check("compile/exec"); !chaos.ok()) {
    return result;
  }
  const uint64_t total = uint64_t{1} << t;

  if (cancel != nullptr) {
    Status live = cancel->Check();
    if (!live.ok()) {
      result.decided = true;
      result.error = std::move(live);
      result.masks_skipped = total;
      return result;
    }
  }

  // W-independence gate: base plus the WHOLE pool must be satisfiable.
  // Membership atoms over existing terms add no equality edges, so every
  // base+W shares base's equality graph and the satisfiability conditions
  // are per-atom over that graph — each pool atom satisfiable alone makes
  // base+T, and so every subset, satisfiable, which is what entitles the
  // scan to skip the per-mask CheckSatisfiable.
  for (const Atom& atom : pool) {
    if (atom.kind() != AtomKind::kMembership ||
        !base.NotContradictsMembership(atom.var(), atom.set_term().var,
                                       atom.set_term().attr)) {
      return result;
    }
  }
  // Each pool atom must add its own entry (element rep, set-var rep,
  // attr) to base+W's membership index, so that a signature bit names
  // exactly one atom. The pool is one candidate per such entry by
  // construction; a collision means the assumption broke, so fall back
  // rather than guess.
  const EqualityGraph& tgraph = base.graph();
  std::set<std::tuple<TermId, TermId, std::string>> entries;
  for (const Atom& atom : pool) {
    if (!entries
             .emplace(tgraph.Find(tgraph.VarNode(atom.var())),
                      tgraph.Find(tgraph.VarNode(atom.set_term().var)),
                      atom.set_term().attr)
             .second) {
      return result;
    }
  }

  // One enumeration of every complete mapping of q2 into base, each
  // reduced to the pool bits it demands of W.
  std::set<std::pair<uint64_t, uint64_t>> signatures;
  bool all_covered = false;  // a (required=0, forbidden=0) mapping exists
  MappingResult enumeration = EnumerateNonContradictoryMappings(
      schema, q2, base, constraints, pool, cancel,
      [&](uint64_t required, uint64_t forbidden) {
        if (required == 0 && forbidden == 0) {
          all_covered = true;  // this mapping serves every mask
          return false;
        }
        signatures.emplace(required, forbidden);
        return signatures.size() <= kMaxMaskSignatures;
      });
  if (enumeration.exhausted || signatures.size() > kMaxMaskSignatures) {
    return MaskScanResult{};  // bail out to the interpreted scan
  }
  result.mapping_steps = enumeration.steps;
  if (!enumeration.cancelled.ok()) {
    result.decided = true;
    result.error = std::move(enumeration.cancelled);
    result.masks_skipped = total;
    return result;
  }
  span.Arg("signatures", static_cast<uint64_t>(signatures.size()))
      .Arg("steps", enumeration.steps);

  // ---- Word-parallel coverage scan --------------------------------------
  // Mask W is covered iff some signature has required ⊆ W ∧ W ∩ forbidden
  // = ∅. Split W into (block, low 6 bits): the high parts gate whether a
  // signature applies to a 64-mask block at all, and its low parts form a
  // precomputed 64-bit coverage pattern — one OR per (signature, block)
  // replaces 64 per-mask mapping searches.
  struct SigPattern {
    uint64_t req_hi = 0;
    uint64_t forb_hi = 0;
    uint64_t pattern = 0;
  };
  std::vector<SigPattern> patterns;
  patterns.reserve(signatures.size());
  for (const auto& [req, forb] : signatures) {
    SigPattern p;
    p.req_hi = req >> 6;
    p.forb_hi = forb >> 6;
    const uint64_t req_lo = req & 63;
    const uint64_t forb_lo = forb & 63;
    for (uint64_t j = 0; j < 64; ++j) {
      if ((j & req_lo) == req_lo && (j & forb_lo) == 0) {
        p.pattern |= uint64_t{1} << j;
      }
    }
    patterns.push_back(p);
  }

  result.decided = true;
  const uint64_t num_blocks = (total + 63) / 64;
  for (uint64_t b = 0; b < num_blocks; ++b) {
    if (cancel != nullptr) {
      Status live = cancel->Check();
      if (!live.ok()) {
        result.error = std::move(live);
        result.masks_skipped = total - result.masks_tested;
        return result;
      }
    }
    const uint64_t begin = b * 64;
    const uint64_t block_size = std::min<uint64_t>(64, total - begin);
    uint64_t covered = 0;
    if (all_covered) {
      covered = ~uint64_t{0};
    } else {
      for (const SigPattern& p : patterns) {
        if ((b & p.req_hi) == p.req_hi && (b & p.forb_hi) == 0) {
          covered |= p.pattern;
          if (covered == ~uint64_t{0}) break;
        }
      }
    }
    uint64_t uncovered = ~covered;
    if (block_size < 64) uncovered &= (uint64_t{1} << block_size) - 1;
    // Decide first, charge exactly the masks decided: up to and including
    // the refuting mask, or the whole block. The budget trips iff the
    // mask-by-mask interpreted charge would have tripped at or before the
    // same mask, so both paths agree on error-versus-false.
    const uint64_t tested_here =
        uncovered != 0 ? LowestZeroBit(covered) + 1 : block_size;
    if (budget != nullptr) {
      Status charged = budget->ChargeSubsetWork(tested_here);
      if (!charged.ok()) {
        result.error = std::move(charged);
        result.masks_skipped = total - result.masks_tested;
        return result;
      }
    }
    result.masks_tested += tested_here;
    if (uncovered != 0) {
      result.contained = false;
      result.refuting_mask = begin + tested_here - 1;
      result.masks_skipped = total - result.masks_tested;
      span.Arg("contained", "false");
      return result;
    }
  }
  result.contained = true;
  span.Arg("contained", "true");
  return result;
}

}  // namespace oocq::compile
