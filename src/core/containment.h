#ifndef OOCQ_CORE_CONTAINMENT_H_
#define OOCQ_CORE_CONTAINMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/prepared.h"
#include "query/query.h"
#include "schema/schema.h"
#include "support/cancellation.h"
#include "support/resource_budget.h"
#include "support/status.h"

namespace oocq {

/// The ceiling on |T|: a membership subset W ⊆ T is a 64-bit mask, and
/// the scan counts 2^|T| of them.
inline constexpr uint32_t kMaxMembershipPool = 63;

/// Resource limits for the containment test. The general test (Thm 3.1)
/// enumerates consistent augmentations × membership-atom subsets ×
/// mapping-search steps; each axis is capped and overruns surface as
/// ResourceExhausted rather than unbounded work.
struct ContainmentOptions {
  uint64_t max_mapping_steps = 10'000'000;
  uint64_t max_augmentations = 100'000;
  /// Cap on |T|, the deduplicated candidate membership atoms (Thm 3.1
  /// enumerates all 2^|T| subsets W). Values above kMaxMembershipPool (63)
  /// act as 63; a larger pool is ResourceExhausted either way.
  uint32_t max_membership_candidates = 24;
  /// Ablation switch: always run the full Thm 3.1 enumeration (all
  /// consistent augmentations × all membership subsets) even when Q2's
  /// atom kinds admit a Cor 3.2–3.4 fast path. The outcome is identical;
  /// bench_ablation measures what the fast paths save.
  bool force_full_theorem = false;
  /// Use the compiled subset scan (src/compile/mask_scan.h) for the
  /// 2^|T| membership-subset axis: one mapping enumeration plus a
  /// word-parallel bitmask coverage test instead of a mapping search per
  /// subset. Verdicts, statuses, and the membership_subsets counters are
  /// identical to the interpreted scan (the serial per-mask reference,
  /// which stays the fallback for shapes the compiled scan refuses).
  bool enable_compilation = true;
  /// Cooperative cancellation (support/cancellation.h), polled between
  /// independent work items — per membership-subset mask, per
  /// augmentation, per disjunct test, per self-mapping search. When the
  /// token trips, the test aborts with its retryable status
  /// (kDeadlineExceeded / kUnavailable) instead of finishing the scan.
  /// Null (the default) disables polling. Not owned.
  const CancellationToken* cancel = nullptr;
  /// Optional shared budget, charged one subset work unit per membership
  /// mask scanned — the same cadence the cancellation token is polled at.
  /// Unlike max_membership_candidates (a per-call structural cap), a
  /// budget meters aggregate work across the requests sharing it and
  /// trips with retryable kResourceExhausted. Not owned; may be null.
  ResourceBudget* budget = nullptr;
};

/// Work counters filled by Contained() when non-null (benches E4/E8).
struct ContainmentStats {
  uint64_t augmentations = 0;
  /// Membership-subset masks actually tested (a mapping search ran, or
  /// the compiled scan decided them). Masks enumerated but never tested
  /// land in membership_subsets_skipped instead.
  uint64_t membership_subsets = 0;
  /// Masks enumerated but not tested: unsatisfiable targets, masks
  /// behind an abort (budget, cancellation, error), and masks after a
  /// decisive refutation. membership_subsets + membership_subsets_skipped
  /// is the full 2^|T| enumeration the scan was asked for.
  uint64_t membership_subsets_skipped = 0;
  uint64_t mapping_searches = 0;
  uint64_t mapping_steps = 0;
  /// Containment-cache traffic of the decisions this call routed through
  /// a ContainmentCache (both zero when no cache was involved). Misses
  /// equal the distinct decisions computed.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  /// Accumulates `other` into this.
  void Add(const ContainmentStats& other) {
    augmentations += other.augmentations;
    membership_subsets += other.membership_subsets;
    membership_subsets_skipped += other.membership_subsets_skipped;
    mapping_searches += other.mapping_searches;
    mapping_steps += other.mapping_steps;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
  }
};

/// Why one Contained() call decided as it did — filled only when the
/// caller passes one (ExplainContainment narrates it, core/explain.h).
struct ContainmentDecision {
  /// The Thm 3.1 specialization that ran ("Cor3.4", "Cor3.3", "Cor3.2",
  /// "Thm3.1"), or "trivial" when a satisfiability shortcut decided — the
  /// label of the Contained span and its containment/<spec> counter.
  const char* spec = "trivial";
  /// The Thm 2.2 reason when Q1 (resp. Q2) is unsatisfiable; empty
  /// otherwise. Only the first unsatisfiable side is reported.
  std::string q1_unsatisfiable;
  std::string q2_unsatisfiable;
  /// On a refutation with both sides satisfiable: the refuting
  /// configuration Q1&S&W — the equalities S of the consistent
  /// augmentation and the membership subset W ⊆ T, as atoms over the
  /// variables of NormalizeTerminalQuery(Q1). The first refuting
  /// configuration in enumeration order, on either subset scan.
  std::vector<Atom> refuting_s;
  std::vector<Atom> refuting_w;
};

/// Decides Q1 ⊆ Q2 for well-formed terminal conjunctive queries over
/// `schema`. Implements Thm 3.1, automatically specializing by Q2's atom
/// kinds: positive Q2 → single mapping search (Cor 3.4); Q2 without
/// non-membership atoms → augmentations only (Cor 3.3); Q2 without
/// inequality atoms → membership subsets only (Cor 3.2). An unsatisfiable
/// Q1 is contained in everything; a satisfiable Q1 is never contained in
/// an unsatisfiable Q2. Thm 3.1's pool T holds one candidate membership
/// atom per (element class, set-term class) pair of the augmented Q1 that
/// keeps it satisfiable and is not already derivable; all 2^|T| subsets W
/// are checked. `decision` (optional) receives the decision record.
///
/// The operands' well-formedness, satisfiability and normal forms are
/// read from their PreparedDisjunct (core/prepared.h), and Q1's analysis
/// serves as the S = W = ∅ target, so deciding many pairs over the same
/// disjuncts derives each fact once.
StatusOr<bool> Contained(const Schema& schema, const PreparedDisjunct& q1,
                         const PreparedDisjunct& q2,
                         const ContainmentOptions& options = {},
                         ContainmentStats* stats = nullptr,
                         ContainmentDecision* decision = nullptr);

/// Contained() on two queries prepared for this call alone.
StatusOr<bool> Contained(const Schema& schema, const ConjunctiveQuery& q1,
                         const ConjunctiveQuery& q2,
                         const ContainmentOptions& options = {},
                         ContainmentStats* stats = nullptr,
                         ContainmentDecision* decision = nullptr);

/// Q1 ≡ Q2: containment in both directions.
StatusOr<bool> EquivalentQueries(const Schema& schema,
                                 const ConjunctiveQuery& q1,
                                 const ConjunctiveQuery& q2,
                                 const ContainmentOptions& options = {},
                                 ContainmentStats* stats = nullptr);

class ContainmentCache;

/// Thm 4.1: for unions of terminal *positive* conjunctive queries,
/// M ⊆ N iff every satisfiable disjunct of M is contained in some disjunct
/// of N. Returns FailedPrecondition when a satisfiable disjunct is not
/// positive or not terminal (the componentwise characterization does not
/// hold for general queries). M's disjuncts are tested in order, and the
/// first one contained in no disjunct of N (or the first error) decides:
/// `stats` counts the tests run up to it and none after. When `cache` is
/// non-null the per-disjunct tests route through it (its
/// ContainmentOptions govern those decisions) and its hit/miss traffic
/// lands in `stats`.
StatusOr<bool> UnionContained(const Schema& schema,
                              const PreparedDisjuncts& m,
                              const PreparedDisjuncts& n,
                              const ContainmentOptions& options = {},
                              ContainmentStats* stats = nullptr,
                              ContainmentCache* cache = nullptr);

/// UnionContained() on two unions prepared for this call alone.
StatusOr<bool> UnionContained(const Schema& schema, const UnionQuery& m,
                              const UnionQuery& n,
                              const ContainmentOptions& options = {},
                              ContainmentStats* stats = nullptr,
                              ContainmentCache* cache = nullptr);

/// M ≡ N for unions of terminal positive conjunctive queries.
StatusOr<bool> UnionEquivalent(const Schema& schema, const UnionQuery& m,
                               const UnionQuery& n,
                               const ContainmentOptions& options = {},
                               ContainmentStats* stats = nullptr,
                               ContainmentCache* cache = nullptr);

}  // namespace oocq

#endif  // OOCQ_CORE_CONTAINMENT_H_
