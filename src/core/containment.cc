#include "core/containment.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <utility>
#include <vector>

#include "compile/mask_scan.h"
#include "core/augmentation.h"
#include "core/containment_cache.h"
#include "core/derivability.h"
#include "core/mapping.h"
#include "core/satisfiability.h"
#include "query/equality_graph.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/status_macros.h"
#include "support/trace.h"

namespace oocq {

namespace {

/// What one Contained() call decided structurally: which Thm 3.1
/// specialization dispatch fired, and the largest membership pool |T| it
/// enumerated subsets of. Deterministic — the dispatch depends only on
/// Q2's atom kinds and the pool only on the (augmented) query.
struct ContainedTraceInfo {
  const char* specialization = "trivial";  // decided by a shortcut
  uint64_t max_pool = 0;
};

bool HasAtomKind(const ConjunctiveQuery& query, AtomKind kind) {
  return std::any_of(
      query.atoms().begin(), query.atoms().end(),
      [kind](const Atom& atom) { return atom.kind() == kind; });
}

/// The pool T of Thm 3.1 for a (possibly augmented) satisfiable terminal
/// target query, read off its analysis: one candidate membership atom per
/// (element equivalence class, set-term equivalence class) pair that keeps
/// the query satisfiable when added, excluding already-derivable ones.
/// Every candidate reuses existing terms, so its Thm 2.2 verdict is an
/// index lookup (QueryAnalysis::NotContradictsMembership, DESIGN.md §5.3)
/// rather than a check of a copy.
StatusOr<std::vector<Atom>> MembershipCandidatePool(
    const QueryAnalysis& analysis, const ContainmentOptions& options) {
  OOCQ_TRACE_SPAN(span, "MembershipCandidatePool");
  const ConjunctiveQuery& base = analysis.query();
  const EqualityGraph& graph = analysis.graph();

  // Representative element variables: one per variable equivalence class.
  std::vector<VarId> element_reps;
  {
    std::set<TermId> seen;
    for (VarId v = 0; v < base.num_vars(); ++v) {
      if (seen.insert(graph.Find(graph.VarNode(v))).second) {
        element_reps.push_back(v);
      }
    }
  }
  // Representative set terms: one per (set-variable class, attribute).
  std::vector<std::pair<VarId, std::string>> set_reps;
  {
    std::set<std::pair<TermId, std::string>> seen;
    for (const Atom& atom : base.atoms()) {
      if (atom.kind() != AtomKind::kMembership &&
          atom.kind() != AtomKind::kNonMembership) {
        continue;
      }
      TermId rep = graph.Find(graph.VarNode(atom.set_term().var));
      if (seen.insert({rep, atom.set_term().attr}).second) {
        set_reps.emplace_back(atom.set_term().var, atom.set_term().attr);
      }
    }
  }

  const uint32_t cap =
      std::min(options.max_membership_candidates, kMaxMembershipPool);
  std::vector<Atom> candidates;
  for (VarId element : element_reps) {
    for (const auto& [set_var, attr] : set_reps) {
      if (!analysis.NotContradictsMembership(element, set_var, attr)) continue;
      // Skip candidates already derivable: adding them changes nothing.
      if (analysis.DerivesMembership(element, set_var, attr)) continue;
      candidates.push_back(Atom::Membership(element, set_var, attr));
      if (candidates.size() > cap) {
        return Status::ResourceExhausted(
            "more than " + std::to_string(cap) +
            " candidate membership atoms (2^|T| subsets would be "
            "enumerated); ContainmentOptions::max_membership_candidates "
            "can be raised up to 63, the width of a subset mask");
      }
    }
  }
  span.Arg("pool", static_cast<uint64_t>(candidates.size()));
  return candidates;
}

/// The Thm 3.1 decision procedure proper; the public Contained() wraps it
/// with a trace span and metrics. `tinfo` receives the dispatch outcome;
/// `decision` (nullable) the unsatisfiability reason or refutation.
StatusOr<bool> ContainedImpl(const Schema& schema, const PreparedDisjunct& q1,
                             const PreparedDisjunct& q2,
                             const ContainmentOptions& options,
                             ContainmentStats& stats,
                             ContainedTraceInfo* tinfo,
                             ContainmentDecision* decision) {
  if (options.cancel != nullptr) {
    OOCQ_RETURN_IF_ERROR(options.cancel->Check());
  }
  OOCQ_RETURN_IF_ERROR(q1.well_formed());
  OOCQ_RETURN_IF_ERROR(q2.well_formed());
  if (!q1.terminal() || !q2.terminal()) {
    return Status::FailedPrecondition(
        "Contained requires terminal conjunctive queries; expand with "
        "ExpandToTerminalQueries first");
  }

  if (!q1.satisfiable()) {
    if (decision != nullptr) {
      decision->q1_unsatisfiable = q1.unsatisfiable_reason();
    }
    return true;
  }
  if (!q2.satisfiable()) {
    if (decision != nullptr) {
      decision->q2_unsatisfiable = q2.unsatisfiable_reason();
    }
    return false;
  }

  const ConjunctiveQuery& n1 = q1.normalized();
  const ConjunctiveQuery& n2 = q2.normalized();

  const bool rhs_has_inequality =
      options.force_full_theorem || HasAtomKind(n2, AtomKind::kInequality);
  const bool rhs_has_non_membership =
      options.force_full_theorem ||
      HasAtomKind(n2, AtomKind::kNonMembership);
  // Thm 3.1's specialization lattice over Q2's atom kinds (§3, Cor
  // 3.2–3.4): inequalities force the augmentation axis, non-membership
  // atoms force the membership-subset axis.
  tinfo->specialization =
      rhs_has_inequality ? (rhs_has_non_membership ? "Thm3.1" : "Cor3.3")
                         : (rhs_has_non_membership ? "Cor3.2" : "Cor3.4");

  MappingConstraints constraints;
  constraints.free_target = n1.free_var();
  constraints.max_steps = options.max_mapping_steps;

  // Records the refuting configuration Q1&S&W — S the equalities `base`
  // appends to n1, W the pool atoms of `mask` — into the decision record.
  auto record_refutation = [&](const ConjunctiveQuery& base,
                               const std::vector<Atom>& pool, uint64_t mask) {
    if (decision == nullptr) return;
    decision->refuting_s.assign(base.atoms().begin() + n1.atoms().size(),
                                base.atoms().end());
    decision->refuting_w.clear();
    for (size_t i = 0; i < pool.size(); ++i) {
      if (mask & (uint64_t{1} << i)) decision->refuting_w.push_back(pool[i]);
    }
  };

  // Checks the Thm 3.1 condition against one consistent augmentation
  // Q1&S, given as its analysis `base_analysis` (Q1's prepared analysis
  // when S = ∅), enumerating the subsets W of T when Q2 has
  // non-membership atoms. That one analysis serves the pool, the compiled
  // scan and mask 0.
  auto check_base = [&](const QueryAnalysis& base_analysis) -> StatusOr<bool> {
    // Cancellation is polled once per augmentation here and inside the
    // subset scan (per coverage node, or per mask in the oracle), so both
    // Thm 3.1 axes abort promptly.
    if (options.cancel != nullptr) {
      OOCQ_RETURN_IF_ERROR(options.cancel->Check());
    }
    ++stats.augmentations;
    const ConjunctiveQuery& base = base_analysis.query();
    std::vector<Atom> membership_pool;
    if (rhs_has_non_membership) {
      OOCQ_ASSIGN_OR_RETURN(membership_pool,
                            MembershipCandidatePool(base_analysis, options));
    }
    const size_t t_size = membership_pool.size();
    tinfo->max_pool = std::max<uint64_t>(tinfo->max_pool, t_size);
    const uint64_t total = uint64_t{1} << t_size;
    uint64_t& skipped = stats.membership_subsets_skipped;
    if (Status chaos = Failpoints::Check("core/subset_scan"); !chaos.ok()) {
      skipped += total;
      return chaos;
    }

    // The compiled subset scan (src/compile/mask_scan.h) decides every
    // pool, the empty one included: one mapping enumeration plus a
    // cofactor coverage check replaces the 2^|T| per-mask searches.
    if (options.enable_compilation) {
      compile::MaskScanResult scan = compile::RunCompiledMaskScan(
          schema, base_analysis, membership_pool, n2, constraints,
          options.cancel, options.budget);
      OOCQ_METRIC_ADD("compile/mask_scans", 1);
      stats.membership_subsets += scan.masks_tested;
      skipped += total - scan.masks_tested;
      ++stats.mapping_searches;
      stats.mapping_steps += scan.mapping_steps;
      if (!scan.error.ok()) return scan.error;
      if (!scan.contained) {
        record_refutation(base, membership_pool, scan.refuting_mask);
      }
      return scan.contained;
    }

    // The interpreted per-mask scan, the reference oracle kept for
    // enable_compilation = false: one mapping search per mask W in mask
    // order, into Q1&S&W checked in full. Masks it leaves untested —
    // unsatisfiable targets, masks behind an abort or after the
    // refutation — count as skipped, so membership_subsets keeps meaning
    // "masks actually tested".
    for (uint64_t mask = 0; mask < total; ++mask) {
      Status live = options.cancel != nullptr ? options.cancel->Check()
                                              : Status::Ok();
      if (live.ok() && options.budget != nullptr) {
        live = options.budget->ChargeSubsetWork(1);
      }
      if (!live.ok()) {
        skipped += total - mask;
        return live;
      }
      // Mask 0 targets `base` itself, whose analysis is already built;
      // every other mask is checked in full, as the test oracle.
      const QueryAnalysis* analysis = &base_analysis;
      StatusOr<QueryAnalysis> built = Status::Internal("unbuilt");
      if (mask != 0) {
        ConjunctiveQuery target = base;
        for (size_t i = 0; i < t_size; ++i) {
          if (mask & (uint64_t{1} << i)) target.AddAtom(membership_pool[i]);
        }
        if (!CheckSatisfiable(schema, target).satisfiable) {
          ++skipped;
          continue;
        }
        built = QueryAnalysis::Create(schema, target);
        analysis = built.ok() ? &*built : nullptr;
      }
      ++stats.membership_subsets;
      ++stats.mapping_searches;
      if (analysis == nullptr) {
        skipped += total - mask - 1;
        return built.status();
      }
      MappingResult mapping =
          FindNonContradictoryMapping(schema, n2, *analysis, constraints);
      stats.mapping_steps += mapping.steps;
      if (mapping.found()) continue;
      skipped += total - mask - 1;
      if (mapping.exhausted) {
        return Status::ResourceExhausted(
            "mapping search exceeded ContainmentOptions::max_mapping_steps");
      }
      record_refutation(base, membership_pool, mask);
      return false;
    }
    return true;
  };

  // Q1&S for S = ∅ is Q1's normal form, whose analysis the prepared
  // disjunct builds once; every other augmentation gets its own.
  auto check_augmentation =
      [&](const ConjunctiveQuery& augmented) -> StatusOr<bool> {
    if (augmented.atoms().size() == n1.atoms().size()) {
      const StatusOr<QueryAnalysis>& analysis = q1.analysis();
      if (!analysis.ok()) return analysis.status();
      return check_base(*analysis);
    }
    OOCQ_ASSIGN_OR_RETURN(QueryAnalysis analysis,
                          QueryAnalysis::Create(schema, augmented));
    return check_base(analysis);
  };

  if (!rhs_has_inequality) {
    // Cor 3.4 (positive Q2) and Cor 3.2 (no inequalities): S = ∅ only.
    return check_augmentation(n1);
  }

  // Cor 3.3 / Thm 3.1: enumerate every consistent augmentation.
  AugmentationOptions augmentation_options;
  augmentation_options.max_augmentations = options.max_augmentations;
  Status inner_error = Status::Ok();
  StatusOr<bool> outcome = ForEachConsistentAugmentation(
      schema, n1, augmentation_options,
      [&](const ConjunctiveQuery& augmented) -> bool {
        StatusOr<bool> ok = check_augmentation(augmented);
        if (!ok.ok()) {
          inner_error = ok.status();
          return false;
        }
        return *ok;
      },
      options.cancel);
  if (!inner_error.ok()) return inner_error;
  if (!outcome.ok()) return outcome.status();
  return *outcome;
}

/// "Cor3.4" -> "containment/cor34", "Thm3.1" -> "containment/thm31", …
std::string SpecializationCounterName(const char* specialization) {
  std::string name = "containment/";
  for (const char* p = specialization; *p != '\0'; ++p) {
    if (*p == '.') continue;
    name += static_cast<char>(
        std::tolower(static_cast<unsigned char>(*p)));
  }
  return name;
}

}  // namespace

StatusOr<bool> Contained(const Schema& schema, const PreparedDisjunct& q1,
                         const PreparedDisjunct& q2,
                         const ContainmentOptions& options,
                         ContainmentStats* stats,
                         ContainmentDecision* decision) {
  OOCQ_TRACE_SPAN(span, "Contained");
  ContainedTraceInfo tinfo;
  ContainmentStats local;
  StatusOr<bool> verdict =
      ContainedImpl(schema, q1, q2, options, local, &tinfo, decision);
  if (stats != nullptr) stats->Add(local);
  if (decision != nullptr) decision->spec = tinfo.specialization;
  if (MetricsRegistry* metrics = ActiveMetrics()) {
    metrics->Add("containment/calls", 1);
    metrics->Add(SpecializationCounterName(tinfo.specialization), 1);
    metrics->Add("containment/augmentations", local.augmentations);
    metrics->Add("containment/membership_subsets", local.membership_subsets);
    metrics->Add("containment/membership_subsets_skipped",
                 local.membership_subsets_skipped);
    metrics->Add("containment/mapping_searches", local.mapping_searches);
    metrics->Add("containment/mapping_steps", local.mapping_steps);
    metrics->Record("containment/pool_size", tinfo.max_pool);
  }
  if (span.recording()) {
    // A Contained() call runs serially, so every annotation is
    // scheduling-independent (docs/observability.md).
    span.Arg("spec", tinfo.specialization)
        .Arg("pool", tinfo.max_pool)
        .Arg("augmentations", local.augmentations)
        .Arg("subsets", local.membership_subsets)
        .Arg("mapping_steps", local.mapping_steps);
    if (verdict.ok()) span.Arg("contained", *verdict ? "true" : "false");
  }
  return verdict;
}

StatusOr<bool> Contained(const Schema& schema, const ConjunctiveQuery& q1,
                         const ConjunctiveQuery& q2,
                         const ContainmentOptions& options,
                         ContainmentStats* stats,
                         ContainmentDecision* decision) {
  return Contained(schema, PreparedDisjunct(schema, q1),
                   PreparedDisjunct(schema, q2), options, stats, decision);
}

StatusOr<bool> EquivalentQueries(const Schema& schema,
                                 const ConjunctiveQuery& q1,
                                 const ConjunctiveQuery& q2,
                                 const ContainmentOptions& options,
                                 ContainmentStats* stats) {
  const PreparedDisjunct p1(schema, q1);
  const PreparedDisjunct p2(schema, q2);
  OOCQ_ASSIGN_OR_RETURN(bool forward, Contained(schema, p1, p2, options, stats));
  if (!forward) return false;
  return Contained(schema, p2, p1, options, stats);
}

StatusOr<bool> UnionContained(const Schema& schema, const PreparedDisjuncts& m,
                              const PreparedDisjuncts& n,
                              const ContainmentOptions& options,
                              ContainmentStats* stats,
                              ContainmentCache* cache) {
  OOCQ_TRACE_SPAN(span, "UnionContained");
  span.Arg("m_disjuncts", static_cast<uint64_t>(m.size()))
      .Arg("n_disjuncts", static_cast<uint64_t>(n.size()));
  OOCQ_METRIC_ADD("containment/union_calls", 1);
  // Thm 4.1 is stated (and true) for unions of terminal positive
  // conjunctive queries; reject anything else.
  for (const PreparedDisjuncts* side : {&m, &n}) {
    for (const std::shared_ptr<const PreparedDisjunct>& q : *side) {
      OOCQ_RETURN_IF_ERROR(q->well_formed());
      if (!q->terminal()) {
        return Status::FailedPrecondition(
            "UnionContained requires terminal disjuncts");
      }
      if (q->satisfiable() && !q->positive()) {
        return Status::FailedPrecondition(
            "UnionContained requires positive disjuncts (Thm 4.1)");
      }
    }
  }

  // Thm 4.1: each satisfiable disjunct of M must be contained in some
  // disjunct of N; the first that is not decides.
  for (const std::shared_ptr<const PreparedDisjunct>& qi : m) {
    if (options.cancel != nullptr) {
      OOCQ_RETURN_IF_ERROR(options.cancel->Check());
    }
    if (!qi->satisfiable()) continue;
    bool contained_somewhere = false;
    for (const std::shared_ptr<const PreparedDisjunct>& pj : n) {
      OOCQ_ASSIGN_OR_RETURN(
          contained_somewhere,
          cache != nullptr ? cache->Contained(*qi, *pj, stats, options.cancel,
                                              options.budget)
                           : Contained(schema, *qi, *pj, options, stats));
      if (contained_somewhere) break;
    }
    if (!contained_somewhere) return false;
  }
  return true;
}

StatusOr<bool> UnionContained(const Schema& schema, const UnionQuery& m,
                              const UnionQuery& n,
                              const ContainmentOptions& options,
                              ContainmentStats* stats,
                              ContainmentCache* cache) {
  return UnionContained(schema, PrepareDisjuncts(schema, m.disjuncts),
                        PrepareDisjuncts(schema, n.disjuncts), options, stats,
                        cache);
}

StatusOr<bool> UnionEquivalent(const Schema& schema, const UnionQuery& m,
                               const UnionQuery& n,
                               const ContainmentOptions& options,
                               ContainmentStats* stats,
                               ContainmentCache* cache) {
  const PreparedDisjuncts pm = PrepareDisjuncts(schema, m.disjuncts);
  const PreparedDisjuncts pn = PrepareDisjuncts(schema, n.disjuncts);
  OOCQ_ASSIGN_OR_RETURN(bool forward,
                        UnionContained(schema, pm, pn, options, stats, cache));
  if (!forward) return false;
  return UnionContained(schema, pn, pm, options, stats, cache);
}

}  // namespace oocq
