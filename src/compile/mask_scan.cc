#include "compile/mask_scan.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <tuple>
#include <utility>

#include "core/derivability.h"
#include "support/failpoint.h"
#include "support/trace.h"

namespace oocq::compile {

namespace {

/// The source variables an atom constrains (range atoms are folded into
/// the candidate lists, as in core/mapping.cc).
void AtomVariables(const Atom& atom, VarId out[2], int* count) {
  *count = 0;
  switch (atom.kind()) {
    case AtomKind::kRange:
      break;
    case AtomKind::kNonRange:
    case AtomKind::kConstant:
      out[(*count)++] = atom.var();
      break;
    default:
      out[(*count)++] = atom.lhs().var;
      if (atom.rhs().var != atom.lhs().var) out[(*count)++] = atom.rhs().var;
      break;
  }
}

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
                                   const MaskScanOptions& options) {
  OOCQ_TRACE_SPAN(span, "CompiledMaskScan");
  MaskScanResult result;
  const size_t t = pool.size();
  if (t == 0 || t > 63) return result;  // nothing to gain / mask overflow
  // Chaos hook: force the interpreted fallback mid-request. Never an
  // error to the caller — the fallback is the behavior under test.
  if (Status chaos = Failpoints::Check("compile/exec"); !chaos.ok()) {
    return result;
  }
  const uint64_t total = uint64_t{1} << t;

  if (options.cancel != nullptr) {
    Status live = options.cancel->Check();
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
  const EqualityGraph& tgraph = base.graph();

  // Signature of each pool atom: (element rep, set-var rep, attr) — the
  // exact entry it adds to base+W's membership index when included. The
  // pool is one candidate per such signature by construction; a collision
  // means the assumption broke, so fall back rather than guess.
  std::map<std::tuple<TermId, TermId, std::string>, size_t> pool_sig;
  for (size_t i = 0; i < t; ++i) {
    const Atom& atom = pool[i];
    auto key = std::make_tuple(tgraph.Find(tgraph.VarNode(atom.var())),
                               tgraph.Find(tgraph.VarNode(atom.set_term().var)),
                               atom.set_term().attr);
    if (!pool_sig.emplace(std::move(key), i).second) return result;
  }

  // ---- Enumerate every complete mapping of q2 into base -----------------
  // Identical candidate rule and backtracking structure as
  // FindNonContradictoryMapping; the difference is that (non-)membership
  // atoms whose image is not decided by base alone do not pass or fail —
  // they constrain which masks this mapping serves, accumulated as
  // required/forbidden pool bits along the assignment path.
  const ConjunctiveQuery& tq = base.query();
  const VarId free_target = constraints.free_target == kInvalidVarId
                                ? tq.free_var()
                                : constraints.free_target;
  const size_t n = q2.num_vars();
  std::vector<std::vector<VarId>> candidates(n);
  const TermId free_rep = tgraph.Find(tgraph.VarNode(free_target));
  bool any_empty = false;
  for (VarId v = 0; v < n && !any_empty; ++v) {
    ClassId cls = q2.RangeClassOf(v);
    for (VarId w = 0; w < tq.num_vars(); ++w) {
      if (base.range_class(w) != cls) continue;
      if (w == constraints.forbidden_target) continue;
      if (v == q2.free_var() && tgraph.Find(tgraph.VarNode(w)) != free_rep) {
        continue;
      }
      candidates[v].push_back(w);
    }
    if (candidates[v].empty()) any_empty = true;
  }

  std::set<std::pair<uint64_t, uint64_t>> signatures;
  bool all_covered = false;  // a (required=0, forbidden=0) mapping exists
  uint64_t steps = 0;

  if (!any_empty) {
    std::vector<VarId> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&candidates](VarId a, VarId b) {
                       return candidates[a].size() < candidates[b].size();
                     });
    std::vector<size_t> position(n);
    for (size_t i = 0; i < n; ++i) position[order[i]] = i;

    std::vector<std::vector<const Atom*>> checks(n);
    for (const Atom& atom : q2.atoms()) {
      VarId vars[2];
      int count = 0;
      AtomVariables(atom, vars, &count);
      if (count == 0) continue;
      size_t last = position[vars[0]];
      if (count == 2) last = std::max(last, position[vars[1]]);
      checks[last].push_back(&atom);
    }

    std::vector<VarId> image(n, kInvalidVarId);
    // Checks one atom against the partial image; bits the atom demands
    // from the mask accumulate into req/forb. Returns false when the atom
    // fails for EVERY mask (the branch is dead).
    auto atom_constrains = [&](const Atom& atom, uint64_t* req,
                               uint64_t* forb) -> bool {
      switch (atom.kind()) {
        case AtomKind::kRange:
          return true;
        case AtomKind::kNonRange:
          for (ClassId excluded : atom.classes()) {
            if (schema.IsSubclassOf(base.range_class(image[atom.var()]),
                                    excluded)) {
              return false;
            }
          }
          return true;
        case AtomKind::kEquality:
          return base.DerivesEquality(
              atom.lhs().WithVar(image[atom.lhs().var]),
              atom.rhs().WithVar(image[atom.rhs().var]));
        case AtomKind::kInequality:
          return base.NotContradictsInequality(
              atom.lhs().WithVar(image[atom.lhs().var]),
              atom.rhs().WithVar(image[atom.rhs().var]));
        case AtomKind::kConstant:
          return base.DerivesConstant(image[atom.var()], atom.constant());
        case AtomKind::kMembership: {
          const VarId ix = image[atom.lhs().var];
          const VarId iy = image[atom.rhs().var];
          const std::string& attr = atom.rhs().attr;
          if (base.DerivesMembership(ix, iy, attr)) return true;
          auto it = pool_sig.find(std::make_tuple(
              tgraph.Find(tgraph.VarNode(ix)), tgraph.Find(tgraph.VarNode(iy)),
              attr));
          if (it == pool_sig.end()) return false;  // derivable in no base+W
          *req |= uint64_t{1} << it->second;
          return true;
        }
        case AtomKind::kNonMembership: {
          const VarId ix = image[atom.lhs().var];
          const VarId iy = image[atom.rhs().var];
          const std::string& attr = atom.rhs().attr;
          if (!base.HasSetTerm(iy, attr)) return false;
          if (base.DerivesMembership(ix, iy, attr)) return false;
          auto it = pool_sig.find(std::make_tuple(
              tgraph.Find(tgraph.VarNode(ix)), tgraph.Find(tgraph.VarNode(iy)),
              attr));
          if (it != pool_sig.end()) *forb |= uint64_t{1} << it->second;
          return true;
        }
      }
      return false;
    };

    std::vector<size_t> choice(n, 0);
    std::vector<uint64_t> cum_req(n, 0);
    std::vector<uint64_t> cum_forb(n, 0);
    size_t depth = 0;
    while (true) {
      if (++steps > options.max_steps) return MaskScanResult{};  // bail out
      if (options.cancel != nullptr && (steps & 4095) == 0) {
        Status live = options.cancel->Check();
        if (!live.ok()) {
          result.decided = true;
          result.error = std::move(live);
          result.masks_skipped = total;
          result.mapping_steps = steps;
          return result;
        }
      }
      VarId v = order[depth];
      if (choice[depth] >= candidates[v].size()) {
        image[v] = kInvalidVarId;
        choice[depth] = 0;
        if (depth == 0) break;  // enumeration complete
        --depth;
        image[order[depth]] = kInvalidVarId;
        ++choice[depth];
        continue;
      }
      image[v] = candidates[v][choice[depth]];
      uint64_t req = depth > 0 ? cum_req[depth - 1] : 0;
      uint64_t forb = depth > 0 ? cum_forb[depth - 1] : 0;
      bool live_branch = true;
      for (const Atom* atom : checks[depth]) {
        if (!atom_constrains(*atom, &req, &forb)) {
          live_branch = false;
          break;
        }
      }
      // required ∩ forbidden ≠ ∅ serves no mask at all.
      if (!live_branch || (req & forb) != 0) {
        image[v] = kInvalidVarId;
        ++choice[depth];
        continue;
      }
      cum_req[depth] = req;
      cum_forb[depth] = forb;
      if (depth + 1 == n) {
        if (req == 0 && forb == 0) {
          all_covered = true;  // this mapping serves every mask
          break;
        }
        if (signatures.insert({req, forb}).second &&
            signatures.size() > options.max_signatures) {
          return MaskScanResult{};  // bail out to the interpreted scan
        }
        image[v] = kInvalidVarId;
        ++choice[depth];
        continue;
      }
      ++depth;
    }
  }
  result.mapping_steps = steps;
  span.Arg("signatures", static_cast<uint64_t>(signatures.size()))
      .Arg("steps", steps);

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
    if (options.cancel != nullptr) {
      Status live = options.cancel->Check();
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
    if (options.budget != nullptr) {
      Status charged = options.budget->ChargeSubsetWork(tested_here);
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
