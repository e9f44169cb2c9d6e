#include "core/canonical.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "support/metrics.h"

namespace oocq {

namespace {

/// Deterministic text encoding of a term under a variable renumbering.
std::string EncodeTerm(const Term& term, const std::vector<int>& index) {
  std::string out = std::to_string(index[term.var]);
  if (term.is_attribute()) {
    out += '.';
    out += term.attr;
  }
  return out;
}

/// Deterministic text encoding of an atom under a variable renumbering.
std::string EncodeAtom(const Atom& atom, const std::vector<int>& index) {
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
std::string EncodeQuery(const ConjunctiveQuery& query,
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

/// Ranks `strings` lexicographically into `rank` (equal strings share a
/// rank, ranks dense from 0) and returns the number of distinct strings.
size_t RankStrings(const std::vector<std::string>& strings,
                   std::vector<VarId>* order, std::vector<int>* rank) {
  order->resize(strings.size());
  std::iota(order->begin(), order->end(), VarId{0});
  std::sort(order->begin(), order->end(), [&strings](VarId a, VarId b) {
    return strings[a] < strings[b];
  });
  rank->resize(strings.size());
  int distinct = 0;
  for (size_t i = 0; i < order->size(); ++i) {
    if (i > 0 && strings[(*order)[i]] != strings[(*order)[i - 1]]) ++distinct;
    (*rank)[(*order)[i]] = distinct;
  }
  return strings.empty() ? 0 : static_cast<size_t>(distinct) + 1;
}

/// One side of a binary atom as its variable sees it: the signature
/// prefix `kind:self.attr>other.attr@` and the other endpoint.
struct Incidence {
  std::string prefix;
  VarId other;
};

/// Color refinement: stable partition of the variables by structural
/// role. Returns the color id per variable.
///
/// The initial color is the free flag, the sorted range-class lists and
/// the sorted constants. Each round appends to a variable's color its
/// sorted incidence signatures (prefix + the other endpoint's color),
/// then compresses the colors to `c<rank>` strings; it stops once a round
/// after the first leaves the class count unchanged. Incidence lists are
/// built once and the round's strings go into reused buffers.
std::vector<int> RefineColors(const ConjunctiveQuery& query) {
  const size_t n = query.num_vars();
  std::vector<std::vector<std::string>> ranges(n);
  std::vector<std::vector<std::string>> constants(n);
  std::vector<std::vector<Incidence>> incident(n);
  for (const Atom& atom : query.atoms()) {
    switch (atom.kind()) {
      case AtomKind::kRange: {
        std::string r;
        for (ClassId c : atom.classes()) {
          r += std::to_string(c);
          r += ',';
        }
        ranges[atom.var()].push_back(std::move(r));
        break;
      }
      case AtomKind::kNonRange:
        break;  // Never colored (the key bytes depend on it); encoded only.
      case AtomKind::kConstant:
        constants[atom.var()].push_back(ConstantToString(atom.constant()));
        break;
      default: {
        const std::string kind =
            std::to_string(static_cast<int>(atom.kind())) + ":";
        const Term& lhs = atom.lhs();
        const Term& rhs = atom.rhs();
        incident[lhs.var].push_back(
            {kind + lhs.attr + ">" + rhs.attr + "@", rhs.var});
        incident[rhs.var].push_back(
            {kind + rhs.attr + ">" + lhs.attr + "@", lhs.var});
        break;
      }
    }
  }

  std::vector<std::string> color(n);
  for (VarId v = 0; v < n; ++v) {
    color[v] = v == query.free_var() ? "F" : "B";
    std::sort(ranges[v].begin(), ranges[v].end());
    for (const std::string& r : ranges[v]) {
      color[v] += '[';
      color[v] += r;
      color[v] += ']';
    }
    std::sort(constants[v].begin(), constants[v].end());
    for (const std::string& c : constants[v]) {
      color[v] += '#';
      color[v] += c;
    }
  }

  std::vector<std::string> next(n);
  std::vector<std::string> signatures;
  std::vector<VarId> order;
  std::vector<int> rank;
  size_t classes = 0;
  for (size_t round = 0; round < n; ++round) {
    for (VarId v = 0; v < n; ++v) {
      signatures.resize(incident[v].size());
      for (size_t i = 0; i < incident[v].size(); ++i) {
        signatures[i] = incident[v][i].prefix;
        signatures[i] += color[incident[v][i].other];
      }
      std::sort(signatures.begin(), signatures.end());
      next[v] = color[v];
      for (const std::string& s : signatures) {
        next[v] += '{';
        next[v] += s;
        next[v] += '}';
      }
    }
    const size_t next_classes = RankStrings(next, &order, &rank);
    for (VarId v = 0; v < n; ++v) {
      color[v] = 'c';
      color[v] += std::to_string(rank[v]);
    }
    // Round 0 always refines once more: the initial colors were never
    // ranked, so there is no class count to compare against.
    const bool changed = next_classes != classes;
    classes = next_classes;
    if (!changed && round > 0) break;
  }

  // Final ids rank the `c<rank>` strings as strings ("c10" < "c2").
  RankStrings(color, &order, &rank);
  return rank;
}

/// The canonical variable order and EncodeQuery under it.
struct CanonicalOrder {
  std::vector<int> index;  // variable -> position
  std::string encoding;
};

std::vector<int> IndexOf(const std::vector<VarId>& order) {
  std::vector<int> index(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    index[order[i]] = static_cast<int>(i);
  }
  return index;
}

/// The canonical order: variables by color, ascending ids within a
/// color. When colors tie, the search walks the product of per-group
/// permutations in lexicographic order and keeps the first order whose
/// encoding is smallest; it is skipped when the product exceeds
/// `max_tie_permutations`.
///
/// A group whose adjacent transpositions each map the identity encoding
/// onto itself is interchangeable: the transpositions generate every
/// permutation of the group, so all of them encode alike, and the first
/// smallest order keeps the group sorted. Such groups stay sorted; the
/// budget still counts them, so what is over budget is unchanged.
CanonicalOrder ComputeCanonicalOrder(const ConjunctiveQuery& query,
                                     uint64_t max_tie_permutations) {
  const size_t n = query.num_vars();
  const std::vector<int> colors = RefineColors(query);
  std::vector<VarId> order(n);
  std::iota(order.begin(), order.end(), VarId{0});
  std::stable_sort(order.begin(), order.end(), [&colors](VarId a, VarId b) {
    return colors[a] < colors[b];
  });
  // Group g is order[starts[g], starts[g + 1]).
  std::vector<size_t> starts;
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || colors[order[i]] != colors[order[i - 1]]) starts.push_back(i);
  }
  starts.push_back(n);

  uint64_t permutations = 1;
  bool over_budget = false;
  for (size_t g = 0; g + 1 < starts.size() && !over_budget; ++g) {
    for (size_t k = 2; k <= starts[g + 1] - starts[g]; ++k) {
      if (permutations > max_tie_permutations / k) {
        over_budget = true;
        break;
      }
      permutations *= k;
    }
  }

  CanonicalOrder result;
  if (over_budget || permutations == 1) {
    result.index = IndexOf(order);
    result.encoding = EncodeQuery(query, result.index);
    return result;
  }

  std::vector<int> swapped(n);
  std::iota(swapped.begin(), swapped.end(), 0);
  const std::string identity_encoding = EncodeQuery(query, swapped);
  std::vector<size_t> permuted;  // groups the search permutes
  for (size_t g = 0; g + 1 < starts.size(); ++g) {
    bool interchangeable = true;
    for (size_t i = starts[g]; i + 1 < starts[g + 1] && interchangeable; ++i) {
      std::swap(swapped[order[i]], swapped[order[i + 1]]);
      interchangeable = EncodeQuery(query, swapped) == identity_encoding;
      std::swap(swapped[order[i]], swapped[order[i + 1]]);
    }
    if (!interchangeable) permuted.push_back(g);
  }

  std::vector<VarId> best = order;
  uint64_t encoded = 0;
  auto search = [&](auto& self, size_t p) -> void {
    if (p == permuted.size()) {
      std::string encoding = EncodeQuery(query, IndexOf(order));
      if (encoded++ == 0 || encoding < result.encoding) {
        result.encoding = std::move(encoding);
        best = order;
      }
      return;
    }
    const auto first =
        order.begin() + static_cast<std::ptrdiff_t>(starts[permuted[p]]);
    const auto last =
        order.begin() + static_cast<std::ptrdiff_t>(starts[permuted[p] + 1]);
    do {
      self(self, p + 1);
    } while (std::next_permutation(first, last));
  };
  search(search, 0);
  OOCQ_METRIC_ADD("canonical/orders_encoded", encoded);
  result.index = IndexOf(best);
  return result;
}

}  // namespace

ConjunctiveQuery CanonicalizeQuery(const ConjunctiveQuery& query,
                                   uint64_t max_tie_permutations) {
  const size_t n = query.num_vars();
  const std::vector<int> index =
      ComputeCanonicalOrder(query, max_tie_permutations).index;

  // Materialize: variables renamed v0..v{n-1} in canonical order.
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

std::string CanonicalKey(const ConjunctiveQuery& query,
                         uint64_t max_tie_permutations) {
  // EncodeQuery under the winning order is EncodeQuery of the
  // materialized query under the identity: the same atoms under the same
  // renaming, sorted and deduplicated either way.
  return ComputeCanonicalOrder(query, max_tie_permutations).encoding;
}

}  // namespace oocq
