#include "core/minimization.h"

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/containment_cache.h"
#include "core/derivability.h"
#include "core/mapping.h"
#include "core/prepared.h"
#include "core/satisfiability.h"
#include "query/well_formed.h"
#include "support/metrics.h"
#include "support/status_macros.h"
#include "support/thread_pool.h"
#include "support/trace.h"

namespace oocq {

namespace {

/// Searches for a non-contradictory self-mapping of the analyzed query
/// that preserves the free variable and avoids `eliminate` in its image.
/// Returns the image when found.
MappingResult FindEliminatingSelfMapping(const Schema& schema,
                                         const QueryAnalysis& analysis,
                                         VarId eliminate,
                                         const MinimizationOptions& options,
                                         ContainmentStats* stats) {
  const ConjunctiveQuery& query = analysis.query();
  MappingConstraints constraints;
  constraints.forbidden_target = eliminate;
  constraints.free_target = query.free_var();
  constraints.max_steps = options.containment.max_mapping_steps;
  MappingResult mapping =
      FindNonContradictoryMapping(schema, query, analysis, constraints);
  if (stats != nullptr) {
    ++stats->mapping_searches;
    stats->mapping_steps += mapping.steps;
  }
  return mapping;
}

/// Fans the variable minimization of each disjunct out over
/// options.parallel and appends the results (and their work counters) to
/// `report` in input order.
Status MinimizeDisjunctsInto(const Schema& schema,
                             const UnionQuery& nonredundant,
                             const EngineOptions& options,
                             MinimizationReport& report) {
  // §4 variable minimization (Thm 4.3 / Cor 4.4) of every surviving
  // disjunct.
  OOCQ_TRACE_SPAN(span, "MinimizeVariables");
  span.Arg("disjuncts", static_cast<uint64_t>(nonredundant.disjuncts.size()));
  ScopedPhaseTimer timer("phase/minimize_vars");
  struct DisjunctOutcome {
    ConjunctiveQuery minimal;
    uint64_t removed = 0;
    ContainmentStats stats;
  };
  OOCQ_ASSIGN_OR_RETURN(
      std::vector<DisjunctOutcome> outcomes,
      (ParallelMap<DisjunctOutcome>(
          options.parallel, nonredundant.disjuncts.size(),
          [&](size_t i) -> StatusOr<DisjunctOutcome> {
            DisjunctOutcome outcome;
            OOCQ_ASSIGN_OR_RETURN(
                outcome.minimal,
                MinimizeTerminalPositive(schema, nonredundant.disjuncts[i],
                                         options, &outcome.removed,
                                         &outcome.stats));
            return outcome;
          })));
  for (DisjunctOutcome& outcome : outcomes) {
    report.variables_removed += outcome.removed;
    report.containment.Add(outcome.stats);
    report.minimized.disjuncts.push_back(std::move(outcome.minimal));
  }
  span.Arg("vars_removed", report.variables_removed);
  OOCQ_METRIC_ADD("minimize/vars_removed", report.variables_removed);
  return Status::Ok();
}

/// RemoveRedundantDisjuncts over `count` disjuncts, the i-th prepared by
/// `prepare(i)` (in the screening's fan-out).
StatusOr<UnionQuery> RemoveRedundant(
    const Schema& schema, size_t count,
    const std::function<std::shared_ptr<const PreparedDisjunct>(size_t)>&
        prepare,
    const MinimizationOptions& options, ContainmentCache* cache,
    ContainmentStats* stats);

}  // namespace

StatusOr<ConjunctiveQuery> MinimizeTerminalPositive(
    const Schema& schema, const ConjunctiveQuery& query,
    const MinimizationOptions& options, uint64_t* removed,
    ContainmentStats* stats) {
  OOCQ_TRACE_SPAN(span, "MinimizeTerminalPositive");
  OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, query));
  if (!query.IsTerminal(schema) || !query.IsPositive()) {
    return Status::FailedPrecondition(
        "MinimizeTerminalPositive requires a terminal positive query");
  }
  OOCQ_ASSIGN_OR_RETURN(ConjunctiveQuery current,
                        NormalizeTerminalQuery(schema, query));
  span.Arg("vars_in", static_cast<uint64_t>(current.num_vars()));

  bool progress = true;
  while (progress) {
    progress = false;
    // `current` changes only on a fold, so one analysis serves every
    // candidate variable until then.
    OOCQ_ASSIGN_OR_RETURN(QueryAnalysis analysis,
                          QueryAnalysis::Create(schema, current));
    for (VarId v = 0; v < current.num_vars(); ++v) {
      // One poll per candidate variable: each self-mapping search is an
      // independent work item, the granularity the cancellation contract
      // promises (support/cancellation.h).
      if (options.containment.cancel != nullptr) {
        OOCQ_RETURN_IF_ERROR(options.containment.cancel->Check());
      }
      MappingResult mapping =
          FindEliminatingSelfMapping(schema, analysis, v, options, stats);
      if (mapping.exhausted) {
        return Status::ResourceExhausted(
            "self-mapping search exceeded max_mapping_steps");
      }
      if (!mapping.found()) continue;
      // Thm 4.3: μ(Q) ≡ Q; v is outside the image so at least one
      // variable disappears.
      ConjunctiveQuery folded = ApplyVariableMapping(current, *mapping.image);
      if (removed != nullptr) {
        *removed += current.num_vars() - folded.num_vars();
      }
      current = std::move(folded);
      progress = true;
      break;
    }
  }
  span.Arg("vars_out", static_cast<uint64_t>(current.num_vars()));
  return current;
}

StatusOr<bool> IsMinimalTerminalPositive(const Schema& schema,
                                         const ConjunctiveQuery& query,
                                         const MinimizationOptions& options) {
  OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, query));
  if (!query.IsTerminal(schema) || !query.IsPositive()) {
    return Status::FailedPrecondition(
        "IsMinimalTerminalPositive requires a terminal positive query");
  }
  // A non-bijective self-mapping on a finite variable set misses some
  // variable, so trying every variable as the missing one is exhaustive.
  OOCQ_ASSIGN_OR_RETURN(QueryAnalysis analysis,
                        QueryAnalysis::Create(schema, query));
  for (VarId v = 0; v < query.num_vars(); ++v) {
    MappingResult mapping =
        FindEliminatingSelfMapping(schema, analysis, v, options, nullptr);
    if (mapping.exhausted) {
      return Status::ResourceExhausted(
          "self-mapping search exceeded max_mapping_steps");
    }
    if (mapping.found()) return false;
  }
  return true;
}

StatusOr<UnionQuery> RemoveRedundantDisjuncts(const Schema& schema,
                                              const UnionQuery& query,
                                              const MinimizationOptions& options,
                                              ContainmentCache* cache,
                                              ContainmentStats* stats) {
  return RemoveRedundant(
      schema, query.disjuncts.size(),
      [&](size_t i) {
        return std::make_shared<const PreparedDisjunct>(schema,
                                                        query.disjuncts[i]);
      },
      options, cache, stats);
}

StatusOr<UnionQuery> RemoveRedundantDisjuncts(
    const Schema& schema, const TerminalExpansion& expansion,
    const MinimizationOptions& options, ContainmentCache* cache,
    ContainmentStats* stats) {
  const size_t unpruned = expansion.unpruned.size();
  return RemoveRedundant(
      schema, unpruned + expansion.pruned.size(),
      [&](size_t i) {
        return i < unpruned ? std::make_shared<const PreparedDisjunct>(
                                  schema, expansion.unpruned[i])
                            : std::make_shared<const PreparedDisjunct>(
                                  schema, expansion.pruned[i - unpruned]);
      },
      options, cache, stats);
}

namespace {

StatusOr<UnionQuery> RemoveRedundant(
    const Schema& schema, size_t count,
    const std::function<std::shared_ptr<const PreparedDisjunct>(size_t)>&
        prepare,
    const MinimizationOptions& options, ContainmentCache* cache,
    ContainmentStats* stats) {
  // Thm 4.2: the nonredundant union is unique up to equivalence — this
  // phase finds it via the pairwise containment matrix.
  OOCQ_TRACE_SPAN(span, "RemoveRedundantDisjuncts");
  span.Arg("disjuncts_in", static_cast<uint64_t>(count));
  ScopedPhaseTimer timer("phase/redundancy");
  const EngineOptions opts = WithPropagatedParallelism(options);

  // Drop unsatisfiable disjuncts, and collapse disjuncts that are
  // syntactic renamings of an earlier one (canonical-key pre-pass) before
  // paying for pairwise containment tests. Screening prepares each
  // disjunct — independent work that fans out — and the matrix below
  // reuses its facts and keys; the ordered dedup stays serial. A disjunct
  // that is not well-formed and terminal stays live, so the matrix
  // reports why. A pruned disjunct brings the prune's facts, so its
  // screening computes only its key.
  PreparedDisjuncts live;
  {
    OOCQ_TRACE_SPAN(screen_span, "ScreenDisjuncts");
    screen_span.Arg("disjuncts", static_cast<uint64_t>(count));
    OOCQ_ASSIGN_OR_RETURN(
        PreparedDisjuncts screened,
        (ParallelMap<std::shared_ptr<const PreparedDisjunct>>(
            opts.parallel, count,
            [&](size_t i) -> StatusOr<std::shared_ptr<const PreparedDisjunct>> {
              std::shared_ptr<const PreparedDisjunct> prepared = prepare(i);
              if (prepared->satisfiable()) (void)prepared->key();
              return prepared;
            })));
    std::set<std::string_view> seen_keys;
    for (std::shared_ptr<const PreparedDisjunct>& disjunct : screened) {
      if (disjunct->terminal() && !disjunct->satisfiable()) continue;
      if (disjunct->satisfiable() &&
          !seen_keys.insert(disjunct->key()).second) {
        continue;
      }
      live.push_back(std::move(disjunct));
    }
    screen_span.Arg("live", static_cast<uint64_t>(live.size()));
  }

  const size_t n = live.size();
  // contained[i][j] == live[i] ⊆ live[j]. The n·(n-1) tests are
  // independent; every pair is decided (no early exit), so the matrix —
  // and therefore the kept set and `stats` — is deterministic under any
  // schedule.
  struct PairOutcome {
    bool contained = false;
    ContainmentStats stats;
  };
  const size_t num_pairs = n < 2 ? 0 : n * (n - 1);
  OOCQ_TRACE_SPAN(matrix_span, "ContainmentMatrix");
  matrix_span.Arg("pairs", static_cast<uint64_t>(num_pairs));
  OOCQ_METRIC_ADD("redundancy/pairs", num_pairs);
  OOCQ_ASSIGN_OR_RETURN(
      std::vector<PairOutcome> pairs,
      (ParallelMap<PairOutcome>(
          opts.parallel, num_pairs,
          [&](size_t p) -> StatusOr<PairOutcome> {
            const size_t i = p / (n - 1);
            const size_t off = p % (n - 1);
            const size_t j = off < i ? off : off + 1;
            PairOutcome outcome;
            // Poll per matrix cell so an n² scan aborts within one test
            // of a tripped token (ParallelMap then drains cooperatively).
            if (opts.containment.cancel != nullptr) {
              OOCQ_RETURN_IF_ERROR(opts.containment.cancel->Check());
            }
            StatusOr<bool> contained =
                cache != nullptr
                    ? cache->Contained(*live[i], *live[j], &outcome.stats,
                                       opts.containment.cancel,
                                       opts.containment.budget)
                    : Contained(schema, *live[i], *live[j], opts.containment,
                                &outcome.stats);
            if (!contained.ok()) return contained.status();
            outcome.contained = *contained;
            return outcome;
          })));
  std::vector<std::vector<bool>> contained(n, std::vector<bool>(n, false));
  for (size_t p = 0; p < num_pairs; ++p) {
    const size_t i = p / (n - 1);
    const size_t off = p % (n - 1);
    const size_t j = off < i ? off : off + 1;
    contained[i][j] = pairs[p].contained;
    if (stats != nullptr) stats->Add(pairs[p].stats);
  }

  // Keep the first member of each equivalence group; drop anything
  // contained in a surviving disjunct.
  std::vector<bool> kept(n, true);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n && kept[i]; ++j) {
      if (i == j || !kept[j] || !contained[i][j]) continue;
      if (!contained[j][i] || j < i) kept[i] = false;
    }
  }

  UnionQuery result;
  for (size_t i = 0; i < n; ++i) {
    if (kept[i]) result.disjuncts.push_back(live[i]->query());
  }
  span.Arg("kept", static_cast<uint64_t>(result.disjuncts.size()));
  return result;
}

}  // namespace

StatusOr<MinimizationReport> MinimizePositiveUnion(
    const Schema& schema, const UnionQuery& query,
    const MinimizationOptions& options, ContainmentCache* cache) {
  const EngineOptions opts = WithPropagatedParallelism(options);
  MinimizationReport report;

  // Each input disjunct expands (and prunes) independently.
  OOCQ_ASSIGN_OR_RETURN(
      std::vector<TerminalExpansion> parts,
      (ParallelMap<TerminalExpansion>(
          opts.parallel, query.disjuncts.size(),
          [&](size_t i) -> StatusOr<TerminalExpansion> {
            const ConjunctiveQuery& disjunct = query.disjuncts[i];
            OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, disjunct));
            if (!disjunct.IsPositive()) {
              return Status::FailedPrecondition(
                  "MinimizePositiveUnion requires positive disjuncts");
            }
            return ExpandTerminal(schema, disjunct, opts.expansion);
          })));
  TerminalExpansion expanded;
  for (TerminalExpansion& part : parts) {
    report.raw_disjuncts += part.stats.raw_disjuncts;
    report.satisfiable_disjuncts += part.stats.satisfiable_disjuncts;
    for (PrunedDisjunct& q : part.pruned) {
      expanded.pruned.push_back(std::move(q));
    }
    for (ConjunctiveQuery& q : part.unpruned) {
      expanded.unpruned.push_back(std::move(q));
    }
  }

  OOCQ_ASSIGN_OR_RETURN(
      UnionQuery nonredundant,
      RemoveRedundantDisjuncts(schema, expanded, opts, cache,
                               &report.containment));
  report.nonredundant_disjuncts = nonredundant.disjuncts.size();

  OOCQ_RETURN_IF_ERROR(
      MinimizeDisjunctsInto(schema, nonredundant, opts, report));
  return report;
}

StatusOr<MinimizationReport> MinimizePositiveQuery(
    const Schema& schema, const ConjunctiveQuery& query,
    const MinimizationOptions& options, ContainmentCache* cache) {
  OOCQ_RETURN_IF_ERROR(CheckWellFormed(schema, query));
  if (!query.IsPositive()) {
    return Status::FailedPrecondition(
        "MinimizePositiveQuery requires a positive conjunctive query");
  }
  const EngineOptions opts = WithPropagatedParallelism(options);

  MinimizationReport report;

  OOCQ_ASSIGN_OR_RETURN(TerminalExpansion expanded,
                        ExpandTerminal(schema, query, opts.expansion));
  report.raw_disjuncts = expanded.stats.raw_disjuncts;
  report.satisfiable_disjuncts = expanded.stats.satisfiable_disjuncts;

  OOCQ_ASSIGN_OR_RETURN(
      UnionQuery nonredundant,
      RemoveRedundantDisjuncts(schema, expanded, opts, cache,
                               &report.containment));
  report.nonredundant_disjuncts = nonredundant.disjuncts.size();

  OOCQ_RETURN_IF_ERROR(
      MinimizeDisjunctsInto(schema, nonredundant, opts, report));
  return report;
}

}  // namespace oocq
