#ifndef TECORE_CORE_CONFLICT_H_
#define TECORE_CORE_CONFLICT_H_

#include <memory>
#include <string>
#include <vector>

#include "ground/grounder.h"
#include "rdf/graph.h"
#include "rules/ast.h"
#include "util/status.h"

namespace tecore {
namespace core {

/// \brief One violated constraint grounding: the set of facts that cannot
/// all hold together.
struct Conflict {
  /// Index of the violated constraint in the rule set.
  int32_t rule_index = -1;
  /// The facts involved (indices into the input graph).
  std::vector<rdf::FactId> facts;
};

/// \brief The conflict lists of one detection run. Immutable once a report
/// holds them, so a report carried forward to a later KB version (see
/// api::Engine::Publish) shares them instead of copying.
struct ConflictLists {
  /// All violated constraint groundings.
  std::vector<Conflict> conflicts;
  /// Distinct facts participating in at least one conflict.
  std::vector<rdf::FactId> conflicting_facts;
  /// Per-constraint violation counts, indexed like the rule set.
  std::vector<size_t> per_rule_counts;
};

/// \brief Outcome of conflict detection (the Fig. 8 statistics).
struct ConflictReport {
  size_t num_input_facts = 0;
  /// Never null. Copying a report shares the lists.
  std::shared_ptr<const ConflictLists> lists =
      std::make_shared<const ConflictLists>();
  double detect_time_ms = 0.0;

  const std::vector<Conflict>& conflicts() const { return lists->conflicts; }
  const std::vector<rdf::FactId>& conflicting_facts() const {
    return lists->conflicting_facts;
  }
  const std::vector<size_t>& per_rule_counts() const {
    return lists->per_rule_counts;
  }
  size_t NumConflicts() const { return conflicts().size(); }
  size_t NumConflictingFacts() const { return conflicting_facts().size(); }

  /// \brief Fig. 8-style statistics panel, e.g.
  /// "conflicting facts: 19,734 / 243,157".
  std::string StatsPanel(const rules::RuleSet& rules) const;
};

/// \brief Detects conflicts in a UTKG under a set of temporal constraints.
///
/// Under conflict detection semantics every input fact is assumed present,
/// so each grounding of a constraint whose evaluable head is false (or
/// whose head is `false`) is a conflict among the matched facts. Inference
/// rules in the rule set are ignored here — detection looks at the
/// *asserted* KG (use Resolver for reasoning-aware repair).
class ConflictDetector {
 public:
  ConflictDetector(rdf::TemporalGraph* graph, const rules::RuleSet& rules,
                   ground::GroundingOptions options = {});

  Result<ConflictReport> Detect();

 private:
  rdf::TemporalGraph* graph_;
  const rules::RuleSet& rules_;
  ground::GroundingOptions options_;
};

}  // namespace core
}  // namespace tecore

#endif  // TECORE_CORE_CONFLICT_H_
