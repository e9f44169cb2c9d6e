#include "core/view_matching.h"

#include "core/containment.h"
#include "core/prepared.h"
#include "support/status_macros.h"

namespace oocq {

const char* ViewUsabilityToString(ViewUsability usability) {
  switch (usability) {
    case ViewUsability::kExact:
      return "EXACT";
    case ViewUsability::kSuperset:
      return "SUPERSET";
    case ViewUsability::kSubset:
      return "SUBSET";
    case ViewUsability::kUnrelated:
      return "UNRELATED";
  }
  return "?";
}

StatusOr<std::vector<ViewMatch>> MatchViews(
    const Schema& schema, const std::vector<ViewDefinition>& views,
    const ConjunctiveQuery& query, const MinimizationOptions& options) {
  const EngineOptions opts = WithPropagatedParallelism(options);
  // The query is prepared once for every view it is matched against.
  OOCQ_ASSIGN_OR_RETURN(PreparedQuery q,
                        PrepareQuery(schema, query, opts.expansion));

  std::vector<ViewMatch> matches;
  matches.reserve(views.size());
  for (const ViewDefinition& view : views) {
    OOCQ_ASSIGN_OR_RETURN(PreparedQuery v,
                          PrepareQuery(schema, view.query, opts.expansion));
    OOCQ_ASSIGN_OR_RETURN(
        bool query_in_view,
        UnionContained(schema, q.disjuncts, v.disjuncts, opts.containment));
    OOCQ_ASSIGN_OR_RETURN(
        bool view_in_query,
        UnionContained(schema, v.disjuncts, q.disjuncts, opts.containment));
    ViewMatch match;
    match.view_name = view.name;
    if (query_in_view && view_in_query) {
      match.usability = ViewUsability::kExact;
    } else if (query_in_view) {
      match.usability = ViewUsability::kSuperset;
    } else if (view_in_query) {
      match.usability = ViewUsability::kSubset;
    } else {
      match.usability = ViewUsability::kUnrelated;
    }
    matches.push_back(std::move(match));
  }
  return matches;
}

StatusOr<std::string> BestViewFor(const Schema& schema,
                                  const std::vector<ViewDefinition>& views,
                                  const ConjunctiveQuery& query,
                                  const MinimizationOptions& options) {
  OOCQ_ASSIGN_OR_RETURN(std::vector<ViewMatch> matches,
                        MatchViews(schema, views, query, options));
  for (const ViewMatch& match : matches) {
    if (match.usability == ViewUsability::kExact) return match.view_name;
  }
  for (const ViewMatch& match : matches) {
    if (match.usability == ViewUsability::kSuperset) return match.view_name;
  }
  return std::string();
}

}  // namespace oocq
