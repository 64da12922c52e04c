#include "core/conflict.h"

#include <algorithm>
#include <unordered_set>

#include "util/string_util.h"
#include "util/timer.h"

namespace tecore {
namespace core {

ConflictDetector::ConflictDetector(rdf::TemporalGraph* graph,
                                   const rules::RuleSet& rules,
                                   ground::GroundingOptions options)
    : graph_(graph), rules_(rules), options_(options) {}

Result<ConflictReport> ConflictDetector::Detect() {
  Timer timer;
  // Constraints only; no priors (detection is purely symbolic).
  rules::RuleSet constraints;
  std::vector<int32_t> original_index;
  for (size_t i = 0; i < rules_.rules.size(); ++i) {
    if (rules_.rules[i].IsConstraint()) {
      constraints.rules.push_back(rules_.rules[i]);
      original_index.push_back(static_cast<int32_t>(i));
    }
  }
  ground::GroundingOptions options = options_;
  options.add_evidence_priors = false;
  options.max_rounds = 1;  // constraints derive nothing

  ground::Grounder grounder(graph_, constraints, options);
  TECORE_ASSIGN_OR_RETURN(grounding, grounder.Run());

  ConflictReport report;
  report.num_input_facts = graph_->NumLiveFacts();
  auto lists = std::make_shared<ConflictLists>();
  lists->per_rule_counts.assign(rules_.rules.size(), 0);
  std::unordered_set<rdf::FactId> seen;
  const ground::GroundNetwork& net = grounding.network;
  for (const ground::GroundClause& clause : net.clauses()) {
    if (clause.rule_index < 0) continue;
    Conflict conflict;
    conflict.rule_index = original_index[static_cast<size_t>(clause.rule_index)];
    for (int32_t lit : clause.literals) {
      const ground::GroundAtom& atom = net.atom(ground::LiteralAtom(lit));
      if (atom.is_evidence && atom.source_fact != rdf::kInvalidFactId) {
        conflict.facts.push_back(atom.source_fact);
        if (seen.insert(atom.source_fact).second) {
          lists->conflicting_facts.push_back(atom.source_fact);
        }
      }
    }
    ++lists->per_rule_counts[static_cast<size_t>(conflict.rule_index)];
    lists->conflicts.push_back(std::move(conflict));
  }
  std::sort(lists->conflicting_facts.begin(), lists->conflicting_facts.end());
  report.lists = std::move(lists);
  report.detect_time_ms = timer.ElapsedMillis();
  return report;
}

std::string ConflictReport::StatsPanel(const rules::RuleSet& rules) const {
  std::string out;
  out += "=== TeCoRe conflict detection ===\n";
  out += StringPrintf("temporal facts      : %s\n",
                      FormatWithCommas(
                          static_cast<int64_t>(num_input_facts)).c_str());
  out += StringPrintf("conflicts found     : %s\n",
                      FormatWithCommas(
                          static_cast<int64_t>(conflicts().size())).c_str());
  out += StringPrintf("conflicting facts   : %s (%.2f%%)\n",
                      FormatWithCommas(static_cast<int64_t>(
                          conflicting_facts().size())).c_str(),
                      num_input_facts == 0
                          ? 0.0
                          : 100.0 * static_cast<double>(
                                        conflicting_facts().size()) /
                                static_cast<double>(num_input_facts));
  out += StringPrintf("detection time      : %.1f ms\n", detect_time_ms);
  for (size_t i = 0; i < per_rule_counts().size(); ++i) {
    if (per_rule_counts()[i] == 0) continue;
    const std::string& name = rules.rules[i].name;
    out += StringPrintf(
        "  %-28s : %s\n",
        name.empty() ? StringPrintf("constraint #%zu", i + 1).c_str()
                     : name.c_str(),
        FormatWithCommas(static_cast<int64_t>(per_rule_counts()[i])).c_str());
  }
  return out;
}

}  // namespace core
}  // namespace tecore
