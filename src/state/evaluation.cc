#include "state/evaluation.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>

#include "compile/compiler.h"
#include "compile/vm.h"
#include "state/eval_internal.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/status_macros.h"
#include "support/trace.h"

namespace oocq {

using eval_internal::EvalAtom;
using eval_internal::Truth;

namespace {

/// The compiled fast path: compiles (or reuses options.program) and runs
/// the register VM. Sets *taken to false — and returns a meaningless
/// empty vector — when the tree walker must run instead: compilation
/// disabled, the query shape unsupported, or the compile/exec failpoint
/// forcing a bailout. When *taken is true the result (answers or a
/// genuine VM error such as cancellation) is final and must not fall
/// back.
StatusOr<std::vector<Oid>> TryCompiledEvaluate(const State& state,
                                               const ConjunctiveQuery& query,
                                               const EvalOptions& options,
                                               bool* taken) {
  *taken = false;
  if (!options.enable_compilation) return std::vector<Oid>{};
  // Chaos hook: force a mid-request bailout to the tree walker. The
  // fallback is the behavior under test — never an error to the caller.
  if (Status chaos = Failpoints::Check("compile/exec"); !chaos.ok()) {
    OOCQ_METRIC_ADD("compile/bailouts", 1);
    return std::vector<Oid>{};
  }
  const compile::CompiledQuery* program = options.program;
  std::optional<compile::CompiledQuery> local;
  if (program == nullptr) {
    StatusOr<compile::CompiledQuery> compiled =
        compile::CompileQuery(state.schema(), query);
    if (!compiled.ok()) {
      OOCQ_METRIC_ADD("compile/unsupported", 1);
      return std::vector<Oid>{};
    }
    OOCQ_METRIC_ADD("compile/compiles", 1);
    local.emplace(std::move(*compiled));
    program = &*local;
  }
  *taken = true;
  compile::ExecOptions exec;
  exec.max_bindings = options.max_assignments;
  exec.cancel = options.cancel;
  return compile::ExecuteCompiled(*program, state, exec);
}

}  // namespace

StatusOr<std::vector<Oid>> Evaluate(const State& state,
                                    const ConjunctiveQuery& query,
                                    const EvalOptions& options,
                                    EvalStats* stats) {
  OOCQ_TRACE_SPAN(span, "Evaluate");
  OOCQ_METRIC_ADD("eval/calls", 1);
  if (options.cancel != nullptr) {
    OOCQ_RETURN_IF_ERROR(options.cancel->Check());
  }
  // The compiled path engages only without a stats sink: EvalStats fields
  // describe tree-walker work (assignments in its binding order) and keep
  // their exact meaning for the ablation benches and tests.
  if (stats == nullptr) {
    bool taken = false;
    StatusOr<std::vector<Oid>> compiled =
        TryCompiledEvaluate(state, query, options, &taken);
    if (taken) return compiled;
  }
  const size_t n = query.num_vars();
  span.Arg("vars", static_cast<uint64_t>(n));

  // Candidate extents per variable from its range atom(s). A variable
  // with no range atom ranges over the whole active domain.
  std::vector<std::vector<Oid>> candidates(n);
  for (VarId v = 0; v < n; ++v) {
    const Atom* range = query.RangeAtomOf(v);
    if (range == nullptr) {
      candidates[v].resize(state.num_objects());
      for (Oid oid = 0; oid < state.num_objects(); ++oid) {
        candidates[v][oid] = oid;
      }
    } else {
      std::set<Oid> pool;
      for (ClassId c : range->classes()) {
        for (Oid oid : state.Extent(c)) pool.insert(oid);
      }
      candidates[v].assign(pool.begin(), pool.end());
    }
    if (stats != nullptr) stats->candidate_pool += candidates[v].size();
    if (candidates[v].empty()) return std::vector<Oid>{};
  }

  // Binding order: declaration order, or a connectivity-aware greedy
  // order when reordering is enabled — seed with the smallest pool, then
  // repeatedly bind the smallest-pool variable that shares an atom with
  // an already-bound one (so every bound variable's atoms prune as early
  // as possible), falling back to the smallest disconnected pool.
  // Selectivity alone is not enough: binding a small but disconnected
  // extent first defers every join check to the innermost loop.
  std::vector<VarId> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (options.reorder_variables && n > 1) {
    std::vector<std::vector<char>> adjacent(n, std::vector<char>(n, 0));
    for (const Atom& atom : query.atoms()) {
      switch (atom.kind()) {
        case AtomKind::kRange:
        case AtomKind::kNonRange:
        case AtomKind::kConstant:
          break;
        default: {
          VarId a = atom.lhs().var;
          VarId b = atom.rhs().var;
          adjacent[a][b] = adjacent[b][a] = 1;
          break;
        }
      }
    }
    std::vector<char> placed(n, 0);
    order.clear();
    while (order.size() < n) {
      VarId best = kInvalidVarId;
      bool best_connected = false;
      for (VarId v = 0; v < n; ++v) {
        if (placed[v]) continue;
        bool connected = false;
        for (VarId u : order) {
          if (adjacent[v][u]) {
            connected = true;
            break;
          }
        }
        if (best == kInvalidVarId ||
            std::make_pair(!connected, candidates[v].size()) <
                std::make_pair(!best_connected, candidates[best].size())) {
          best = v;
          best_connected = connected;
        }
      }
      placed[best] = 1;
      order.push_back(best);
    }
  }
  std::vector<size_t> position(n);
  for (size_t i = 0; i < n; ++i) position[order[i]] = i;

  // Schedule each atom at the depth where its last variable binds.
  std::vector<std::vector<const Atom*>> checks(n);
  for (const Atom& atom : query.atoms()) {
    size_t last = 0;
    switch (atom.kind()) {
      case AtomKind::kRange:
      case AtomKind::kNonRange:
        last = position[atom.var()];
        break;
      default:
        last = std::max(position[atom.lhs().var], position[atom.rhs().var]);
        break;
    }
    checks[last].push_back(&atom);
  }

  std::vector<Oid> assignment(n, kInvalidOid);
  std::vector<size_t> choice(n, 0);
  std::set<Oid> answers;
  uint64_t tried = 0;
  size_t depth = 0;
  while (true) {
    VarId var_at_depth = order[depth];
    if (choice[depth] >= candidates[var_at_depth].size()) {
      choice[depth] = 0;
      if (depth == 0) break;
      --depth;
      ++choice[depth];
      continue;
    }
    if (++tried > options.max_assignments) {
      return Status::ResourceExhausted(
          "evaluation exceeded EvalOptions::max_assignments");
    }
    if (options.cancel != nullptr && (tried & 4095) == 0) {
      OOCQ_RETURN_IF_ERROR(options.cancel->Check());
    }
    assignment[var_at_depth] = candidates[var_at_depth][choice[depth]];
    bool holds = true;
    for (const Atom* atom : checks[depth]) {
      if (EvalAtom(state, assignment, *atom) != Truth::kTrue) {
        holds = false;
        break;
      }
    }
    if (!holds) {
      ++choice[depth];
      continue;
    }
    if (depth + 1 == n) {
      answers.insert(assignment[query.free_var()]);
      ++choice[depth];
      continue;
    }
    ++depth;
  }
  if (stats != nullptr) stats->assignments_tried += tried;
  span.Arg("assignments", tried)
      .Arg("answers", static_cast<uint64_t>(answers.size()));
  OOCQ_METRIC_ADD("eval/assignments", tried);

  return std::vector<Oid>(answers.begin(), answers.end());
}

StatusOr<std::vector<Oid>> EvaluateUnion(const State& state,
                                         const UnionQuery& query,
                                         const EvalOptions& options,
                                         EvalStats* stats) {
  std::set<Oid> answers;
  for (const ConjunctiveQuery& disjunct : query.disjuncts) {
    OOCQ_ASSIGN_OR_RETURN(std::vector<Oid> part,
                          Evaluate(state, disjunct, options, stats));
    answers.insert(part.begin(), part.end());
  }
  return std::vector<Oid>(answers.begin(), answers.end());
}

}  // namespace oocq
