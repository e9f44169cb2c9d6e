#ifndef OOCQ_CORE_OPTIMIZER_H_
#define OOCQ_CORE_OPTIMIZER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/minimization.h"
#include "core/prepared.h"
#include "core/search_space.h"
#include "query/query.h"
#include "schema/schema.h"
#include "support/status.h"

namespace oocq {

/// One pipeline phase's aggregated wall time and work, one row of the
/// Summary() per-phase table.
struct PhaseMetrics {
  /// Phase key: "well_form", "expand", "satisfiability_prune",
  /// "redundancy", "minimize_vars" (positive §4) or "fold_vars" (general).
  std::string name;
  uint64_t ns = 0;     // wall time accumulated by the phase's timer
  uint64_t calls = 0;  // times the phase ran in this pipeline
  std::string work;    // phase-specific work description
};

/// Metrics of one engine run, collected when
/// EngineOptions::observability requests it (`metrics` or `trace`).
struct RunMetrics {
  bool enabled = false;
  /// Phases in pipeline order; only phases that actually ran appear.
  std::vector<PhaseMetrics> phases;
  /// Every named counter the run touched, name-sorted. Work counters are
  /// the same on every run of one input; *.ns timing counters are not
  /// (docs/observability.md).
  std::vector<std::pair<std::string, uint64_t>> counters;
};

/// Everything the optimizer learned about one query.
struct OptimizeReport {
  /// The equivalent search-space-optimal union (for positive inputs);
  /// for general conjunctive inputs, the equivalent reduced union of
  /// core/general_minimization.h (sound, but without the §4 optimality
  /// guarantee — the paper leaves exact general minimization open, §5).
  UnionQuery optimized;
  /// True when the exact §4 minimization applied (positive input).
  bool exact = false;
  SearchSpaceCost original_cost;
  SearchSpaceCost optimized_cost;
  MinimizationReport details;
  /// Aggregate work counters of every containment / self-mapping search
  /// the run performed (also available as details.containment).
  ContainmentStats containment;
  /// Containment-cache traffic of this run (EngineOptions::cache); both
  /// zero when the cache is disabled. Misses equal the distinct
  /// containment decisions computed.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Entries the cache's entry cap pushed out during this run.
  uint64_t cache_evictions = 0;
  /// Per-phase timing/work and the run's counters; empty (enabled ==
  /// false) unless EngineOptions::observability asked for collection.
  RunMetrics metrics;
  /// Resource-budget usage of the run (EngineOptions::limits); all zero
  /// with budget_enforced == false when no budget governed the run.
  bool budget_enforced = false;
  uint64_t budget_disjuncts = 0;   // Prop 2.1 disjuncts charged
  uint64_t budget_work_units = 0;  // Thm 3.1 subset masks charged

  /// Multi-line human-readable description of the run; includes the
  /// per-phase time/work table when `metrics` was collected.
  std::string Summary(const Schema& schema) const;
};

class ContainmentCache;

/// Q1 ⊆ Q2 for arbitrary conjunctive queries, given their prepared
/// expansions M and N (PrepareQuery) — the decision behind
/// QueryOptimizer::IsContained and the server's CONTAIN/EQUIV verbs. When
/// Q2 expands to one terminal query, M ⊆ N iff every disjunct of M is
/// contained in it (Contained(), exact for any atom kinds, so general
/// queries are decided here); an empty N (unsatisfiable Q2) contains M
/// iff M is empty too; otherwise Thm 4.1 (UnionContained) decides.
/// `options` must already carry the propagated compilation switch and
/// budget;
/// per-disjunct decisions route through `cache` when non-null. `stats`
/// accumulates the work counters. Charges no expansion: whoever prepared
/// (or reuses, PreparedQuery::ChargeReuse) M and N did.
StatusOr<bool> QueryContained(const Schema& schema, const PreparedQuery& m,
                              const PreparedQuery& n,
                              const ContainmentOptions& options,
                              ContainmentCache* cache = nullptr,
                              ContainmentStats* stats = nullptr);

/// QueryContained() on Q1 and Q2 prepared for this call alone, under
/// options.expansion.
StatusOr<bool> QueryContained(const Schema& schema, const ConjunctiveQuery& q1,
                              const ConjunctiveQuery& q2,
                              const EngineOptions& options,
                              ContainmentCache* cache = nullptr,
                              ContainmentStats* stats = nullptr);

/// The MINIMIZE dispatch for a well-formed query: a positive query gets
/// the exact §4 minimization (MinimizePositiveQuery), a general one the
/// equivalent reduced union of core/general_minimization.h — sound, but
/// without the §4 optimality guarantee. The result is exact iff
/// `well_formed.IsPositive()`.
StatusOr<MinimizationReport> MinimizeWellFormedQuery(
    const Schema& schema, const ConjunctiveQuery& well_formed,
    const EngineOptions& options, ContainmentCache* cache = nullptr);

/// The library facade: owns a schema and drives the full pipeline
/// (well-forming, expansion, satisfiability pruning, redundancy removal,
/// variable minimization) for user queries. Configure the limits and the
/// shared containment cache through EngineOptions (MinimizationOptions is
/// its historical alias).
class QueryOptimizer {
 public:
  explicit QueryOptimizer(Schema schema, MinimizationOptions options = {})
      : schema_(std::move(schema)), options_(options) {}

  const Schema& schema() const { return schema_; }

  /// Optimizes `query` (any conjunctive query; it is normalized to
  /// well-formed first). Positive queries get the exact §4 minimization;
  /// general conjunctive queries get the equivalent satisfiability-pruned
  /// terminal expansion. All workers of the run share one containment
  /// memo table when options.cache.enabled.
  StatusOr<OptimizeReport> Optimize(const ConjunctiveQuery& query) const;

  /// Parses and optimizes a query written in the calculus-like syntax.
  StatusOr<OptimizeReport> OptimizeText(std::string_view text) const;

  /// Containment Q1 ⊆ Q2 of two (arbitrary) conjunctive queries, decided
  /// by QueryContained with a per-call containment cache. `stats`
  /// (optional) accumulates the work counters of the underlying tests.
  StatusOr<bool> IsContained(const ConjunctiveQuery& q1,
                             const ConjunctiveQuery& q2,
                             ContainmentStats* stats = nullptr) const;

  /// IsContained in both directions, sharing one per-call cache.
  StatusOr<bool> IsEquivalent(const ConjunctiveQuery& q1,
                              const ConjunctiveQuery& q2,
                              ContainmentStats* stats = nullptr) const;

 private:
  Schema schema_;
  MinimizationOptions options_;
};

}  // namespace oocq

#endif  // OOCQ_CORE_OPTIMIZER_H_
