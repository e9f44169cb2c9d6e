#ifndef OOCQ_CORE_EXPLAIN_H_
#define OOCQ_CORE_EXPLAIN_H_

#include <string>

#include "core/containment.h"
#include "query/query.h"
#include "schema/schema.h"
#include "support/status.h"

namespace oocq {

/// A human-readable account of one containment decision — the tool a
/// user reaches for when `Contained` answers "no" and they want to know
/// *why* (or "yes" and they want the witness).
struct ContainmentExplanation {
  bool contained = false;
  /// Multi-line narrative: the dispatch path taken (Cor 3.2/3.3/3.4 or
  /// Thm 3.1), the witness mapping on success, or the refuting
  /// augmentation/membership-subset on failure.
  std::string text;
};

/// Normalizes both queries to well-formed (NormalizeToWellFormed), decides
/// Q1 ⊆ Q2 with Contained() under `options` — so its deadline, budget and
/// subset scans govern the explanation too — and narrates the decision
/// record. The normalized queries must be terminal (FailedPrecondition
/// otherwise). The only work beyond Contained() is one mapping search of
/// Q2 into Q1 for the witness line.
StatusOr<ContainmentExplanation> ExplainContainment(
    const Schema& schema, const ConjunctiveQuery& q1,
    const ConjunctiveQuery& q2, const ContainmentOptions& options = {});

}  // namespace oocq

#endif  // OOCQ_CORE_EXPLAIN_H_
