#include "core/explain.h"

#include "core/derivability.h"
#include "core/mapping.h"
#include "core/prepared.h"
#include "query/printer.h"
#include "query/well_formed.h"
#include "support/status_macros.h"

namespace oocq {

namespace {

std::string DescribeMapping(const ConjunctiveQuery& from,
                            const ConjunctiveQuery& to,
                            const std::vector<VarId>& image) {
  std::string out = "  witness mapping: ";
  for (VarId v = 0; v < from.num_vars(); ++v) {
    if (v > 0) out += ", ";
    out += from.var_name(v) + " -> " + to.var_name(image[v]);
  }
  out += "\n";
  return out;
}

std::string DescribeAtoms(const Schema& schema, const ConjunctiveQuery& query,
                          const std::vector<Atom>& atoms, const char* label) {
  std::string out = "  ";
  out += label;
  out += ":";
  if (atoms.empty()) out += " (none)";
  for (const Atom& atom : atoms) {
    out += ' ';
    out += AtomToString(schema, query, atom);
    out += ';';
  }
  out += "\n";
  return out;
}

/// The dispatch line for Contained()'s specialization label.
const char* DescribeDispatch(std::string_view spec) {
  if (spec == "Thm3.1") {
    return "dispatch: full Theorem 3.1 (Q2 has inequality and "
           "non-membership atoms)\n";
  }
  if (spec == "Cor3.3") {
    return "dispatch: Corollary 3.3 (Q2 has inequality atoms; enumerating "
           "consistent augmentations of Q1)\n";
  }
  if (spec == "Cor3.2") {
    return "dispatch: Corollary 3.2 (Q2 has non-membership atoms; "
           "enumerating membership subsets W)\n";
  }
  return "dispatch: Corollary 3.4 (Q2 positive; single non-contradictory "
         "mapping search)\n";
}

}  // namespace

StatusOr<ContainmentExplanation> ExplainContainment(
    const Schema& schema, const ConjunctiveQuery& q1,
    const ConjunctiveQuery& q2, const ContainmentOptions& options) {
  OOCQ_ASSIGN_OR_RETURN(ConjunctiveQuery w1, NormalizeToWellFormed(schema, q1));
  OOCQ_ASSIGN_OR_RETURN(ConjunctiveQuery w2, NormalizeToWellFormed(schema, q2));
  if (!w1.IsTerminal(schema) || !w2.IsTerminal(schema)) {
    return Status::FailedPrecondition(
        "ExplainContainment requires queries that are terminal once "
        "normalized to well-formed");
  }
  const PreparedDisjunct p1(schema, w1);
  const PreparedDisjunct p2(schema, w2);
  ContainmentDecision decision;
  OOCQ_ASSIGN_OR_RETURN(bool contained,
                        Contained(schema, p1, p2, options, nullptr, &decision));

  ContainmentExplanation result;
  result.contained = contained;
  result.text = "Q1 = " + QueryToString(schema, w1) + "\nQ2 = " +
                QueryToString(schema, w2) + "\n";
  if (!decision.q1_unsatisfiable.empty()) {
    result.text += "CONTAINED: Q1 is unsatisfiable (" +
                   decision.q1_unsatisfiable +
                   "), so Q1(s) is empty on every state.\n";
    return result;
  }
  if (!decision.q2_unsatisfiable.empty()) {
    result.text += "NOT CONTAINED: Q2 is unsatisfiable (" +
                   decision.q2_unsatisfiable + ") while Q1 is satisfiable.\n";
    return result;
  }
  result.text += DescribeDispatch(decision.spec);

  // The atoms of the decision record range over normalized Q1.
  const ConjunctiveQuery& n1 = p1.normalized();
  if (!contained) {
    result.text += "refuted on this adversarial configuration of Q1:\n";
    result.text += DescribeAtoms(schema, n1, decision.refuting_s,
                                 "augmentation S (added equalities)");
    result.text += DescribeAtoms(schema, n1, decision.refuting_w,
                                 "membership subset W (added atoms)");
    result.text +=
        "  no non-contradictory mapping from Q2 into Q1&S&W exists; a state "
        "realizing exactly this configuration answers Q1 but not Q2.\n"
        "NOT CONTAINED.\n";
    return result;
  }

  // Containment covers the configuration S = W = ∅, so a mapping of Q2
  // into Q1 itself exists; show it.
  const ConjunctiveQuery& n2 = p2.normalized();
  const StatusOr<QueryAnalysis>& analysis = p1.analysis();
  if (!analysis.ok()) return analysis.status();
  MappingConstraints constraints;
  constraints.free_target = n1.free_var();
  constraints.max_steps = options.max_mapping_steps;
  MappingResult witness =
      FindNonContradictoryMapping(schema, n2, *analysis, constraints);
  if (witness.exhausted) {
    return Status::ResourceExhausted("mapping search exceeded budget");
  }
  if (witness.found()) result.text += DescribeMapping(n2, n1, *witness.image);
  result.text +=
      "CONTAINED: every adversarial configuration admits a "
      "non-contradictory mapping (Thm 3.1).\n";
  return result;
}

}  // namespace oocq
