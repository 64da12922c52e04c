#include "rdf/temporal_ops.h"

#include <string>
#include <unordered_map>

namespace tecore {
namespace rdf {

namespace {

/// Canonical string key of a quad for cross-graph comparison (dictionaries
/// differ between graphs, so ids are not comparable).
std::string QuadKeyOf(const TemporalGraph& graph, const TemporalFact& fact) {
  return graph.dict().Lookup(fact.subject).ToString() + "\x1f" +
         graph.dict().Lookup(fact.predicate).ToString() + "\x1f" +
         graph.dict().Lookup(fact.object).ToString() + "\x1f" +
         fact.interval.ToString();
}

}  // namespace

GraphDiff DiffGraphs(const TemporalGraph& before, const TemporalGraph& after) {
  GraphDiff diff;
  std::unordered_map<std::string, FactId> before_index;
  for (FactId id = 0; id < before.NumFacts(); ++id) {
    before_index.emplace(QuadKeyOf(before, before.fact(id)), id);
  }
  std::unordered_map<std::string, FactId> after_index;
  for (FactId id = 0; id < after.NumFacts(); ++id) {
    const TemporalFact& fact = after.fact(id);
    const std::string key = QuadKeyOf(after, fact);
    after_index.emplace(key, id);
    auto it = before_index.find(key);
    if (it == before_index.end()) {
      diff.added.push_back(fact);
    } else if (before.fact(it->second).confidence != fact.confidence) {
      diff.rescored.emplace_back(before.fact(it->second), fact);
    }
  }
  for (FactId id = 0; id < before.NumFacts(); ++id) {
    if (after_index.find(QuadKeyOf(before, before.fact(id))) ==
        after_index.end()) {
      diff.removed.push_back(before.fact(id));
    }
  }
  return diff;
}

}  // namespace rdf
}  // namespace tecore
