#ifndef OOCQ_TESTS_CANONICAL_REFERENCE_H_
#define OOCQ_TESTS_CANONICAL_REFERENCE_H_

// The string canonicalization that core/canonical.cc replaced, kept as
// the oracle for its byte-equality contract: CanonicalKey and
// CanonicalizeQuery must return exactly what these do for every query.
// Color refinement here rescans every atom for every variable in every
// round, the tie-break search encodes every order of every tied group,
// and CanonicalKey materializes the canonical query before encoding it
// again: slow, but this is the definition of the bytes.

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "query/query.h"

namespace oocq::testing::reference {

/// Deterministic text encoding of a term under a variable renumbering.
inline std::string EncodeTerm(const Term& term, const std::vector<int>& index) {
  std::string out = std::to_string(index[term.var]);
  if (term.is_attribute()) {
    out += '.';
    out += term.attr;
  }
  return out;
}

/// Deterministic text encoding of an atom under a variable renumbering.
inline std::string EncodeAtom(const Atom& atom, const std::vector<int>& index) {
  std::string out = std::to_string(static_cast<int>(atom.kind()));
  out += '|';
  switch (atom.kind()) {
    case AtomKind::kRange:
    case AtomKind::kNonRange: {
      out += std::to_string(index[atom.var()]);
      for (ClassId c : atom.classes()) {
        out += ',';
        out += std::to_string(c);
      }
      break;
    }
    case AtomKind::kConstant:
      out += std::to_string(index[atom.var()]);
      out += '#';
      out += ConstantToString(atom.constant());
      break;
    default: {
      // Equality-style atoms are symmetric: use the smaller encoding
      // first so renumbering cannot flip the comparison.
      std::string lhs = EncodeTerm(atom.lhs(), index);
      std::string rhs = EncodeTerm(atom.rhs(), index);
      if (atom.kind() == AtomKind::kEquality ||
          atom.kind() == AtomKind::kInequality) {
        if (rhs < lhs) std::swap(lhs, rhs);
      }
      out += lhs;
      out += '~';
      out += rhs;
      break;
    }
  }
  return out;
}

/// Full query encoding: free-variable index + sorted unique atom list.
inline std::string EncodeQuery(const ConjunctiveQuery& query,
                               const std::vector<int>& index) {
  std::vector<std::string> atoms;
  atoms.reserve(query.atoms().size());
  for (const Atom& atom : query.atoms()) {
    atoms.push_back(EncodeAtom(atom, index));
  }
  std::sort(atoms.begin(), atoms.end());
  atoms.erase(std::unique(atoms.begin(), atoms.end()), atoms.end());
  std::string out = "f" + std::to_string(index[query.free_var()]);
  for (const std::string& atom : atoms) {
    out += ';';
    out += atom;
  }
  return out;
}

/// Color refinement: stable partition of the variables by structural
/// role. Returns the color id per variable.
inline std::vector<int> RefineColors(const ConjunctiveQuery& query) {
  const size_t n = query.num_vars();
  std::vector<std::string> color(n);
  for (VarId v = 0; v < n; ++v) {
    color[v] = v == query.free_var() ? "F" : "B";
    // All range atoms (robust even for non-well-formed inputs).
    std::vector<std::string> ranges;
    for (const Atom& atom : query.atoms()) {
      if (atom.kind() != AtomKind::kRange || atom.var() != v) continue;
      std::string r;
      for (ClassId c : atom.classes()) r += std::to_string(c) + ",";
      ranges.push_back(std::move(r));
    }
    std::sort(ranges.begin(), ranges.end());
    for (const std::string& r : ranges) color[v] += "[" + r + "]";
    // Constant bindings are part of the initial structural color.
    std::vector<std::string> constants;
    for (const Atom& atom : query.atoms()) {
      if (atom.kind() == AtomKind::kConstant && atom.var() == v) {
        constants.push_back(ConstantToString(atom.constant()));
      }
    }
    std::sort(constants.begin(), constants.end());
    for (const std::string& c : constants) color[v] += "#" + c;
  }

  for (size_t round = 0; round < n; ++round) {
    std::vector<std::string> next(n);
    for (VarId v = 0; v < n; ++v) {
      // Signature: for each incident atom, its kind, this variable's
      // role, the attribute names, and the other endpoint's color.
      std::vector<std::string> signatures;
      for (const Atom& atom : query.atoms()) {
        if (atom.kind() == AtomKind::kRange ||
            atom.kind() == AtomKind::kNonRange ||
            atom.kind() == AtomKind::kConstant) {
          continue;  // Already in the initial color.
        }
        const Term& lhs = atom.lhs();
        const Term& rhs = atom.rhs();
        for (const auto& [self, other] :
             {std::make_pair(lhs, rhs), std::make_pair(rhs, lhs)}) {
          if (self.var != v) continue;
          signatures.push_back(
              std::to_string(static_cast<int>(atom.kind())) + ":" +
              self.attr + ">" + other.attr + "@" + color[other.var]);
        }
      }
      std::sort(signatures.begin(), signatures.end());
      next[v] = color[v];
      for (const std::string& s : signatures) next[v] += "{" + s + "}";
    }
    // Compress to keep strings bounded.
    std::map<std::string, int> ids;
    for (VarId v = 0; v < n; ++v) ids.emplace(next[v], 0);
    int id = 0;
    for (auto& [key, value] : ids) value = id++;
    std::vector<std::string> compressed(n);
    bool changed = false;
    for (VarId v = 0; v < n; ++v) {
      compressed[v] = "c" + std::to_string(ids[next[v]]);
      // Track whether the partition is finer than before by comparing
      // color-class counts.
    }
    std::map<std::string, int> before, after;
    for (VarId v = 0; v < n; ++v) {
      ++before[color[v]];
      ++after[compressed[v]];
    }
    changed = before.size() != after.size();
    color = std::move(compressed);
    if (!changed && round > 0) break;
  }

  std::map<std::string, int> ids;
  for (VarId v = 0; v < n; ++v) ids.emplace(color[v], 0);
  int id = 0;
  for (auto& [key, value] : ids) value = id++;
  std::vector<int> result(n);
  for (VarId v = 0; v < n; ++v) result[v] = ids[color[v]];
  return result;
}

inline ConjunctiveQuery CanonicalizeQuery(const ConjunctiveQuery& query,
                                          uint64_t max_tie_permutations = 10'000) {
  const size_t n = query.num_vars();
  std::vector<int> colors = RefineColors(query);

  // Variables grouped by color, groups in color order.
  std::map<int, std::vector<VarId>> groups;
  for (VarId v = 0; v < n; ++v) groups[colors[v]].push_back(v);

  // Estimate the tie-breaking search space.
  uint64_t permutations = 1;
  bool over_budget = false;
  for (const auto& [color, members] : groups) {
    for (size_t k = 2; k <= members.size(); ++k) {
      if (permutations > max_tie_permutations / k) {
        over_budget = true;
        break;
      }
      permutations *= k;
    }
    if (over_budget) break;
  }

  // Order = concatenation of groups; search permutations within groups
  // for the minimal encoding (skipped when over budget).
  std::vector<VarId> best_order;
  for (const auto& [color, members] : groups) {
    best_order.insert(best_order.end(), members.begin(), members.end());
  }
  auto encode_for = [&query](const std::vector<VarId>& order) {
    std::vector<int> index(query.num_vars());
    for (size_t i = 0; i < order.size(); ++i) index[order[i]] = static_cast<int>(i);
    return EncodeQuery(query, index);
  };
  if (!over_budget && permutations > 1) {
    std::string best_encoding = encode_for(best_order);
    std::vector<std::vector<VarId>> group_list;
    for (auto& [color, members] : groups) group_list.push_back(members);
    // Recursive product of per-group permutations.
    std::vector<VarId> current;
    std::function<void(size_t)> recurse = [&](size_t g) {
      if (g == group_list.size()) {
        std::string encoding = encode_for(current);
        if (encoding < best_encoding) {
          best_encoding = encoding;
          best_order = current;
        }
        return;
      }
      std::vector<VarId> perm = group_list[g];
      std::sort(perm.begin(), perm.end());
      do {
        size_t before = current.size();
        current.insert(current.end(), perm.begin(), perm.end());
        recurse(g + 1);
        current.resize(before);
      } while (std::next_permutation(perm.begin(), perm.end()));
    };
    recurse(0);
  }

  // Materialize: variables renamed v0..v{n-1} in canonical order.
  std::vector<int> index(n);
  for (size_t i = 0; i < n; ++i) index[best_order[i]] = static_cast<int>(i);
  ConjunctiveQuery result;
  for (size_t i = 0; i < n; ++i) {
    result.AddVariable("v" + std::to_string(i));
  }
  result.set_free_var(static_cast<VarId>(index[query.free_var()]));
  std::vector<VarId> mapping(n);
  for (VarId v = 0; v < n; ++v) mapping[v] = static_cast<VarId>(index[v]);
  std::vector<Atom> atoms;
  for (const Atom& atom : query.atoms()) {
    atoms.push_back(atom.MapVariables(mapping));
  }
  std::vector<int> identity(n);
  for (size_t i = 0; i < n; ++i) identity[i] = static_cast<int>(i);
  std::sort(atoms.begin(), atoms.end(), [&identity](const Atom& a, const Atom& b) {
    return EncodeAtom(a, identity) < EncodeAtom(b, identity);
  });
  for (Atom& atom : atoms) result.AddAtom(std::move(atom));
  result.DeduplicateAtoms();
  return result;
}

inline std::string CanonicalKey(const ConjunctiveQuery& query,
                                uint64_t max_tie_permutations = 10'000) {
  // Qualified: argument-dependent lookup also finds oocq::CanonicalizeQuery.
  ConjunctiveQuery canonical =
      reference::CanonicalizeQuery(query, max_tie_permutations);
  std::vector<int> identity(canonical.num_vars());
  for (size_t i = 0; i < identity.size(); ++i) identity[i] = static_cast<int>(i);
  return EncodeQuery(canonical, identity);
}

}  // namespace oocq::testing::reference

#endif  // OOCQ_TESTS_CANONICAL_REFERENCE_H_
