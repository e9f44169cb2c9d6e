#include "core/mapping.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

namespace oocq {

namespace {

/// The source variables an atom constrains (besides range candidates).
void AtomVariables(const Atom& atom, VarId out[2], int* count) {
  *count = 0;
  switch (atom.kind()) {
    case AtomKind::kRange:
      break;  // Folded into the candidate lists.
    case AtomKind::kNonRange:
    case AtomKind::kConstant:
      out[(*count)++] = atom.var();
      break;
    case AtomKind::kEquality:
    case AtomKind::kInequality:
    case AtomKind::kMembership:
    case AtomKind::kNonMembership:
      out[(*count)++] = atom.lhs().var;
      if (atom.rhs().var != atom.lhs().var) out[(*count)++] = atom.rhs().var;
      break;
  }
}

}  // namespace

MappingResult EnumerateNonContradictoryMappings(
    const Schema& schema, const ConjunctiveQuery& from,
    const QueryAnalysis& target, const MappingConstraints& constraints,
    const std::vector<Atom>& pool, const CancellationToken* cancel,
    const MappingVisitor& visit) {
  MappingResult result;
  const ConjunctiveQuery& tq = target.query();
  const VarId free_target = constraints.free_target == kInvalidVarId
                                ? tq.free_var()
                                : constraints.free_target;
  const size_t n = from.num_vars();

  // Candidate targets per source variable: identical range class (range
  // atom derivability is syntactic presence), the forbidden target
  // excluded, and condition (i) for the free variable.
  std::vector<std::vector<VarId>> candidates(n);
  const EqualityGraph& tgraph = target.graph();
  auto rep = [&tgraph](VarId v) { return tgraph.Find(tgraph.VarNode(v)); };
  const TermId free_rep = rep(free_target);
  for (VarId v = 0; v < n; ++v) {
    ClassId cls = from.RangeClassOf(v);
    for (VarId w = 0; w < tq.num_vars(); ++w) {
      if (target.range_class(w) != cls) continue;
      if (w == constraints.forbidden_target) continue;
      if (v == from.free_var() && rep(w) != free_rep) continue;
      candidates[v].push_back(w);
    }
    if (candidates[v].empty()) return result;  // No mapping can exist.
  }

  // Assign variables in ascending candidate-count order.
  std::vector<VarId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&candidates](VarId a, VarId b) {
    return candidates[a].size() < candidates[b].size();
  });
  std::vector<size_t> position(n);
  for (size_t i = 0; i < n; ++i) position[order[i]] = i;

  // Schedule each atom at the position where its last variable binds.
  std::vector<std::vector<const Atom*>> checks(n);
  for (const Atom& atom : from.atoms()) {
    VarId vars[2];
    int count = 0;
    AtomVariables(atom, vars, &count);
    if (count == 0) continue;
    size_t last = position[vars[0]];
    if (count == 2) last = std::max(last, position[vars[1]]);
    checks[last].push_back(&atom);
  }

  // The membership-index entry each pool atom adds to the target.
  struct PoolEntry {
    TermId element;
    TermId set;
    const std::string* attr;
  };
  std::vector<PoolEntry> pool_entries;
  pool_entries.reserve(pool.size());
  for (const Atom& atom : pool) {
    pool_entries.push_back({rep(atom.var()), rep(atom.set_term().var),
                            &atom.set_term().attr});
  }
  // The bit of the pool atom that adds x ∈ y.attr; 0 when none does.
  auto pool_bit = [&](VarId x, VarId y, const std::string& attr) {
    if (pool_entries.empty()) return uint64_t{0};
    const TermId xr = rep(x);
    const TermId yr = rep(y);
    for (size_t i = 0; i < pool_entries.size(); ++i) {
      const PoolEntry& entry = pool_entries[i];
      if (entry.element == xr && entry.set == yr && *entry.attr == attr) {
        return uint64_t{1} << i;
      }
    }
    return uint64_t{0};
  };

  std::vector<VarId> image(n, kInvalidVarId);
  // Whether `atom` holds under the partial image in some target&W; the
  // pool bits it demands of W accumulate into `required`/`forbidden`.
  auto atom_holds = [&](const Atom& atom, uint64_t* required,
                        uint64_t* forbidden) -> bool {
    switch (atom.kind()) {
      case AtomKind::kRange:
        return true;
      case AtomKind::kNonRange:
        // Image classes equal source classes, so this mirrors the source
        // satisfiability condition (g) and is statically decided.
        for (ClassId excluded : atom.classes()) {
          if (schema.IsSubclassOf(target.range_class(image[atom.var()]),
                                  excluded)) {
            return false;
          }
        }
        return true;
      case AtomKind::kEquality:
        return target.DerivesEquality(
            atom.lhs().WithVar(image[atom.lhs().var]),
            atom.rhs().WithVar(image[atom.rhs().var]));
      case AtomKind::kInequality:
        return target.NotContradictsInequality(
            atom.lhs().WithVar(image[atom.lhs().var]),
            atom.rhs().WithVar(image[atom.rhs().var]));
      case AtomKind::kMembership: {
        const VarId x = image[atom.lhs().var];
        const VarId y = image[atom.rhs().var];
        if (target.DerivesMembership(x, y, atom.rhs().attr)) return true;
        const uint64_t bit = pool_bit(x, y, atom.rhs().attr);
        *required |= bit;
        return bit != 0;
      }
      case AtomKind::kNonMembership: {
        const VarId x = image[atom.lhs().var];
        const VarId y = image[atom.rhs().var];
        if (!target.NotContradictsNonMembership(x, y, atom.rhs().attr)) {
          return false;
        }
        *forbidden |= pool_bit(x, y, atom.rhs().attr);
        return true;
      }
      case AtomKind::kConstant:
        return target.DerivesConstant(image[atom.var()], atom.constant());
    }
    return false;
  };

  // Iterative backtracking over candidate indices; demands[d] holds the
  // (required, forbidden) pool bits of the assignment up to depth d.
  std::vector<size_t> choice(n, 0);
  std::vector<std::pair<uint64_t, uint64_t>> demands(n);
  size_t depth = 0;
  while (true) {
    if (++result.steps > constraints.max_steps) {
      result.exhausted = true;
      return result;
    }
    if (cancel != nullptr && (result.steps & 4095) == 0) {
      result.cancelled = cancel->Check();
      if (!result.cancelled.ok()) return result;
    }
    VarId v = order[depth];
    if (choice[depth] >= candidates[v].size()) {
      // Exhausted this level; backtrack.
      image[v] = kInvalidVarId;
      choice[depth] = 0;
      if (depth == 0) return result;  // Enumeration complete.
      --depth;
      image[order[depth]] = kInvalidVarId;
      ++choice[depth];
      continue;
    }
    image[v] = candidates[v][choice[depth]];
    auto [required, forbidden] =
        depth > 0 ? demands[depth - 1] : std::pair<uint64_t, uint64_t>{};
    bool holds = true;
    for (const Atom* atom : checks[depth]) {
      if (!atom_holds(*atom, &required, &forbidden)) {
        holds = false;
        break;
      }
    }
    // A mapping that needs a pool atom both in and out of W serves no W.
    if (holds && (required & forbidden) == 0) {
      if (depth + 1 < n) {
        demands[depth] = {required, forbidden};
        ++depth;
        continue;
      }
      if (!visit(required, forbidden)) {
        result.image = image;
        return result;
      }
    }
    image[v] = kInvalidVarId;
    ++choice[depth];
  }
}

MappingResult FindNonContradictoryMapping(
    const Schema& schema, const ConjunctiveQuery& from,
    const QueryAnalysis& target, const MappingConstraints& constraints) {
  return EnumerateNonContradictoryMappings(
      schema, from, target, constraints, /*pool=*/{}, /*cancel=*/nullptr,
      [](uint64_t, uint64_t) { return false; });
}

}  // namespace oocq
