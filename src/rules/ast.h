#ifndef TECORE_RULES_AST_H_
#define TECORE_RULES_AST_H_

#include <optional>
#include <string>
#include <vector>

#include "logic/atom.h"
#include "logic/variable.h"
#include "util/status.h"

namespace tecore {
namespace rules {

/// \brief What stands on the right of '->'.
enum class HeadKind : uint8_t {
  kQuads,      ///< disjunction of quad atoms (usually a single one)
  kCondition,  ///< evaluable atom: Allen / numeric / term-compare
  kFalse,      ///< denial constraint: body must not hold
};

/// \brief Head of a rule or constraint.
struct RuleHead {
  HeadKind kind = HeadKind::kFalse;
  /// Non-empty iff kind == kQuads; a disjunction (MLN only when > 1).
  std::vector<logic::QuadAtom> quads;
  /// Set iff kind == kCondition.
  std::optional<logic::ConditionAtom> condition;
};

/// \brief A temporal inference rule or constraint:
/// `Body ∧ [Condition] -> Head` with a weight (or hard).
///
/// This single shape covers both of the paper's input kinds:
///  * *inference rules* (f1–f3): quad head, soft weight — derive new facts;
///  * *constraints* (c1–c3): condition head or `false`, usually hard —
///    detect conflicts. The paper's three constraint families (inclusion
///    dependencies with inequalities, (in)equality-generating dependencies,
///    disjointness constraints) are all expressible; see
///    rules/library.h for ready-made builders.
struct Rule {
  /// Optional label, e.g. "f1" or "c2".
  std::string name;
  /// Weight of the formula; ignored when `hard`.
  double weight = 0.0;
  /// True for deterministic (weight = ∞) formulas.
  bool hard = true;
  /// Variable scope of this rule.
  logic::VarTable vars;
  /// Conjunctive body of quad atoms (matched against the UTKG).
  std::vector<logic::QuadAtom> body;
  /// Evaluable side conditions (Allen relations, arithmetic, (in)equality).
  std::vector<logic::ConditionAtom> conditions;
  /// The consequent.
  RuleHead head;

  /// \brief True if this is a constraint (cannot derive new facts).
  bool IsConstraint() const { return head.kind != HeadKind::kQuads; }

  /// \brief True if the head may derive a fact not present in the KG.
  bool IsInferenceRule() const { return head.kind == HeadKind::kQuads; }

  /// \brief Render in the concrete syntax of the rule language.
  std::string ToString() const;
};

/// \brief An ordered collection of rules and constraints.
struct RuleSet {
  std::vector<Rule> rules;

  size_t Size() const { return rules.size(); }
  bool Empty() const { return rules.empty(); }

  /// \brief Append all rules of `other`.
  void Merge(const RuleSet& other) {
    rules.insert(rules.end(), other.rules.begin(), other.rules.end());
  }

  /// \brief Only the constraints (for conflict detection).
  std::vector<const Rule*> Constraints() const;
  /// \brief Only the inference rules (for KG expansion).
  std::vector<const Rule*> InferenceRules() const;

  std::string ToString() const;
};

/// \brief Canonical `.tcr` serialization of a rule set: one rule per line
/// in `Rule::ToString` form, trailing newline. This is the official
/// emitter for machine-written rule files (the WAL/checkpoint payload and
/// the miner's output): weights render via `FormatDoubleExact`, so
/// `ParseRules(WriteRulesText(set))` reproduces `set` and re-emits
/// bit-identically.
std::string WriteRulesText(const RuleSet& rules);

}  // namespace rules
}  // namespace tecore

#endif  // TECORE_RULES_AST_H_
