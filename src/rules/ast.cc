#include "rules/ast.h"

#include "util/string_util.h"

namespace tecore {
namespace rules {

std::string Rule::ToString() const {
  std::string out;
  if (!name.empty()) out += name + ": ";
  for (size_t i = 0; i < body.size(); ++i) {
    if (i > 0) out += " & ";
    out += body[i].ToString(vars);
  }
  if (!conditions.empty()) {
    out += " [";
    for (size_t i = 0; i < conditions.size(); ++i) {
      if (i > 0) out += ", ";
      out += logic::ConditionToString(conditions[i], vars);
    }
    out += "]";
  }
  out += " -> ";
  switch (head.kind) {
    case HeadKind::kFalse:
      out += "false";
      break;
    case HeadKind::kCondition:
      out += logic::ConditionToString(*head.condition, vars);
      break;
    case HeadKind::kQuads:
      for (size_t i = 0; i < head.quads.size(); ++i) {
        if (i > 0) out += " | ";
        out += head.quads[i].ToString(vars);
      }
      break;
  }
  if (hard) {
    out += " w = inf";
  } else {
    // Shortest round-trip-exact form: the rendered text is also the WAL /
    // checkpoint payload, so weights must survive a parse round trip
    // bitwise.
    out += " w = " + FormatDoubleExact(weight);
  }
  return out + " .";
}

std::vector<const Rule*> RuleSet::Constraints() const {
  std::vector<const Rule*> out;
  for (const Rule& r : rules) {
    if (r.IsConstraint()) out.push_back(&r);
  }
  return out;
}

std::vector<const Rule*> RuleSet::InferenceRules() const {
  std::vector<const Rule*> out;
  for (const Rule& r : rules) {
    if (r.IsInferenceRule()) out.push_back(&r);
  }
  return out;
}

std::string RuleSet::ToString() const {
  std::string out;
  for (const Rule& r : rules) {
    out += r.ToString();
    out += "\n";
  }
  return out;
}

std::string WriteRulesText(const RuleSet& rules) { return rules.ToString(); }

}  // namespace rules
}  // namespace tecore
