#ifndef OOCQ_TESTS_CHAIN_QUERIES_H_
#define OOCQ_TESTS_CHAIN_QUERIES_H_

// The signature-heavy Thm 3.1 shape shared by compile_test and
// bench_compile's signature_series (no gtest dependency).

#include <string>

namespace oocq::testing {

/// Edges per chain: d0 -> d1 -> d2 -> d3, so three switch points.
inline constexpr int kChainEdges = 3;

/// m chains d0 -> ... -> d3 over D.Next, each starting inside y.S_i and
/// ending outside it (unless `open_last`, which leaves the last chain's
/// end unpinned): Q2 asks for a switch point z_i in y.S_i, z_i.Next notin
/// y.S_i in every chain. The pool is d1, d2 (and d3 in the open chain) in
/// each y.S_i, so |T| = 2m (2m + 1 when open); every mapping picks one
/// switch per chain, so there are 3^m signatures, and a mask is covered
/// iff every chain switches — always, unless the open chain is filled to
/// its end.
inline std::string ChainSchemaText(int m) {
  std::string text = "schema Chain {\n  class D { Next: D; }\n  class C { ";
  for (int i = 0; i < m; ++i) text += "S" + std::to_string(i) + ": {D}; ";
  return text + "}\n}";
}

inline std::string ChainQ1(int m, bool open_last) {
  const int n = kChainEdges;
  std::string text = "{ y | ";
  for (int j = 0; j <= n; ++j) text += "exists d" + std::to_string(j) + " ";
  text += "(y in C";
  for (int j = 0; j <= n; ++j) text += " & d" + std::to_string(j) + " in D";
  for (int j = 1; j <= n; ++j) {
    text += " & d" + std::to_string(j) + " = d" + std::to_string(j - 1) +
            ".Next";
  }
  for (int i = 0; i < m; ++i) {
    const std::string set = "y.S" + std::to_string(i);
    text += " & d0 in " + set;
    if (!(open_last && i == m - 1)) {
      text += " & d" + std::to_string(n) + " notin " + set;
    }
  }
  return text + ") }";
}

inline std::string ChainQ2(int m) {
  std::string text = "{ y | ";
  for (int i = 0; i < m; ++i) {
    text += "exists z" + std::to_string(i) + " exists w" + std::to_string(i) +
            " ";
  }
  text += "(y in C";
  for (int i = 0; i < m; ++i) {
    const std::string z = "z" + std::to_string(i);
    const std::string w = "w" + std::to_string(i);
    const std::string set = "y.S" + std::to_string(i);
    text += " & " + z + " in D & " + w + " in D & " + w + " = " + z +
            ".Next & " + z + " in " + set + " & " + w + " notin " + set;
  }
  return text + ") }";
}

}  // namespace oocq::testing

#endif  // OOCQ_TESTS_CHAIN_QUERIES_H_
