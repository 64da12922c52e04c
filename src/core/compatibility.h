#ifndef TECORE_CORE_COMPATIBILITY_H_
#define TECORE_CORE_COMPATIBILITY_H_

#include <string>
#include <vector>

#include "rules/ast.h"

namespace tecore {
namespace core {

/// \brief Result of the predicate-level compatibility analysis.
struct CompatibilityReport {
  bool possibly_consistent = true;
  /// One entry per detected contradiction.
  std::vector<std::string> problems;
};

/// \brief Sanity-check a constraint set before grounding.
///
/// Constraints of the shape `quad(x,P,·,t) ∧ quad(x,Q,·,t') → allen(t,t')`
/// are abstracted to a qualitative network over predicates and closed
/// under composition (path consistency). An empty edge means two
/// constraints can never be satisfied together on any subject that has
/// both predicates — the Constraints Editor reports this upfront instead
/// of grounding a trivially over-constrained program.
CompatibilityReport AnalyzeConstraintCompatibility(
    const rules::RuleSet& rules);

}  // namespace core
}  // namespace tecore

#endif  // TECORE_CORE_COMPATIBILITY_H_
