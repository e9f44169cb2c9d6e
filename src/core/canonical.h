#ifndef OOCQ_CORE_CANONICAL_H_
#define OOCQ_CORE_CANONICAL_H_

#include <string>

#include "query/query.h"

namespace oocq {

/// Computes a canonical form of a conjunctive query: variables are
/// renumbered into a deterministic order computed by color refinement
/// over (free-flag, range classes, incident atoms), with remaining ties
/// broken by searching the permutation that minimizes the encoded atom
/// list; atoms are deduplicated and sorted.
///
/// Two queries have the same canonical form iff they are syntactically
/// identical up to bound-variable renaming — a *sufficient* condition for
/// equivalence (NOT necessary; use EquivalentQueries for the semantic
/// relation). RemoveRedundantDisjuncts uses this as a cheap pre-pass.
///
/// When the tie-breaking search space exceeds `max_tie_permutations`, the
/// function falls back to the refinement order: the result is still a
/// deterministic function of the input, but two renamings of one query
/// may then canonicalize differently (safe for deduplication — only
/// false negatives). A color group whose members are interchangeable
/// (every permutation of it leaves the encoding unchanged) is not
/// searched; the cap still counts it, so the fallback is unchanged.
ConjunctiveQuery CanonicalizeQuery(const ConjunctiveQuery& query,
                                   uint64_t max_tie_permutations = 10'000);

/// A byte encoding of CanonicalizeQuery(query): equal keys imply the
/// queries are renamings of each other (up to the permutation cap).
///
/// Returned directly as the encoding of the winning variable order, with
/// no canonical query materialized: 2–3 µs p50 for a three-to-five-
/// variable disjunct when nothing ties (bench_workload BM_CanonicalKey);
/// k interchangeable variables cost k + 1 encodings, not k!.
///
/// The bytes must equal those of the reference implementation in
/// tests/canonical_reference.h: ContainmentCache keys, persisted
/// kCacheEntry records and EngineFingerprint() are made of them, and
/// changing them sets every existing data directory aside.
std::string CanonicalKey(const ConjunctiveQuery& query,
                         uint64_t max_tie_permutations = 10'000);

}  // namespace oocq

#endif  // OOCQ_CORE_CANONICAL_H_
