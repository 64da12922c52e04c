#include "core/compatibility.h"

#include <map>

#include "temporal/allen.h"
#include "temporal/allen_network.h"
#include "util/status.h"

namespace tecore {
namespace core {

CompatibilityReport AnalyzeConstraintCompatibility(
    const rules::RuleSet& rules) {
  CompatibilityReport report;
  // Collect predicates of abstractable constraints:
  // quad(x, P, _, t) & quad(x, Q, _, t') -> allen(t, t'),  P != Q constant.
  std::map<std::string, int> predicate_ids;
  struct Edge {
    int p, q;
    temporal::AllenSet relations;
    const rules::Rule* rule;
  };
  std::vector<Edge> edges;
  for (const rules::Rule& rule : rules.rules) {
    if (rule.head.kind != rules::HeadKind::kCondition) continue;
    const auto* allen =
        std::get_if<logic::AllenAtom>(&*rule.head.condition);
    if (allen == nullptr) continue;
    if (rule.body.size() != 2) continue;
    const logic::QuadAtom& first = rule.body[0];
    const logic::QuadAtom& second = rule.body[1];
    if (first.predicate.is_variable() || second.predicate.is_variable()) {
      continue;
    }
    const std::string p_name = first.predicate.constant().lexical();
    const std::string q_name = second.predicate.constant().lexical();
    if (p_name == q_name) continue;  // self-pairs need object reasoning
    // Head must be allen(t, t') over the two body interval variables in
    // their textual order.
    if (first.time.kind() != logic::IntervalExpr::Kind::kVar ||
        second.time.kind() != logic::IntervalExpr::Kind::kVar ||
        allen->a.kind() != logic::IntervalExpr::Kind::kVar ||
        allen->b.kind() != logic::IntervalExpr::Kind::kVar) {
      continue;
    }
    temporal::AllenSet relations = allen->relations;
    int p_var = allen->a.var(), q_var = allen->b.var();
    if (p_var == second.time.var() && q_var == first.time.var()) {
      relations = relations.ConverseSet();  // head written swapped
    } else if (p_var != first.time.var() || q_var != second.time.var()) {
      continue;
    }
    auto intern = [&predicate_ids](const std::string& name) {
      auto [it, inserted] =
          predicate_ids.emplace(name, static_cast<int>(predicate_ids.size()));
      return it->second;
    };
    edges.push_back({intern(p_name), intern(q_name), relations, &rule});
  }
  if (edges.empty()) return report;

  temporal::AllenNetwork network(static_cast<int>(predicate_ids.size()));
  for (const Edge& edge : edges) {
    Status st = network.Constrain(edge.p, edge.q, edge.relations);
    if (!st.ok()) {
      report.possibly_consistent = false;
      report.problems.push_back(st.ToString());
    }
  }
  // Direct contradictions (empty edges) surface before propagation.
  for (const Edge& edge : edges) {
    if (network.RelationsBetween(edge.p, edge.q).Empty()) {
      report.possibly_consistent = false;
      report.problems.push_back(
          "constraints on the same predicate pair contradict each other "
          "(e.g. '" +
          (edge.rule->name.empty() ? edge.rule->ToString()
                                   : edge.rule->name) +
          "' clashes with another constraint)");
    }
  }
  if (report.possibly_consistent && !network.Propagate()) {
    report.possibly_consistent = false;
    report.problems.push_back(
        "constraint set is path-inconsistent: the Allen relations imposed "
        "between predicates cannot be jointly realized (e.g. a cyclic "
        "'before' chain)");
  }
  return report;
}

}  // namespace core
}  // namespace tecore
