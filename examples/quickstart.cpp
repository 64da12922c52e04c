// Quickstart: the paper's running example in ~60 lines of API use.
//
// Loads the Fig. 1 UTKG about coach Claudio Raineri, the Fig. 4 inference
// rules and Fig. 6 constraints, computes the most probable conflict-free
// temporal KG with the exact MLN backend, and prints what was kept,
// removed, and derived (paper Fig. 7).

#include <cstdio>

#include "api/engine.h"
#include "rules/library.h"

using namespace tecore;  // NOLINT

int main() {
  api::Engine engine;

  // 1. Select a UTKG — temporal quads with confidences (".tq" syntax).
  auto loaded = engine.LoadGraphText(R"(
    CR coach     Chelsea   [2000,2004] 0.9 .
    CR coach     Leicester [2015,2017] 0.7 .
    CR playsFor  Palermo   [1984,1986] 0.5 .
    CR birthDate 1951      [1951,2017] 1.0 .
    CR coach     Napoli    [2001,2003] 0.6 .
    Palermo   locatedIn PalermoCity   [1900,2017] 1.0 .
    Chelsea   locatedIn London        [1900,2017] 1.0 .
    Leicester locatedIn LeicesterCity [1900,2017] 1.0 .
    Napoli    locatedIn Naples        [1900,2017] 1.0 .
  )");
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }

  // 2. Pick inference rules and constraints (the paper's, from the
  //    built-in library; users can write their own in the same syntax).
  //    Only a durable engine can fail a rule write.
  engine.AddRules(*rules::PaperInferenceRules());
  engine.AddRules(*rules::PaperConstraints());

  // 3. Detect conflicts on the current snapshot, then compute the MAP
  //    repair.
  const auto snap = engine.snapshot();
  auto report = snap->DetectConflicts();
  if (!report.ok()) return 1;
  std::printf("conflicts detected: %zu\n", (*report)->NumConflicts());
  for (const core::Conflict& conflict : (*report)->conflicts()) {
    std::printf("%s", snap->DescribeConflict(conflict).c_str());
  }

  core::ResolveOptions options;  // defaults: exact MLN backend
  auto solved = engine.Solve(options);
  if (!solved.ok()) {
    std::fprintf(stderr, "%s\n", solved.status().ToString().c_str());
    return 1;
  }

  // 4. Browse the result. Its fact ids are ids of the graph published
  //    with it.
  const core::ResolveResult& result = *solved->result;
  const rdf::TemporalGraph& graph = *solved->snapshot->graph;
  std::printf("\nmost probable conflict-free temporal KG:\n");
  const rdf::TemporalGraph repaired = result.ConsistentGraph(graph);
  for (const rdf::TemporalFact& fact : repaired.facts()) {
    std::printf("  %s\n", repaired.FactToString(fact).c_str());
  }
  std::printf("\nremoved as noisy:\n");
  for (rdf::FactId id : result.removed_facts) {
    std::printf("  %s\n", graph.FactToString(id).c_str());
  }
  std::printf("\n%s", result.StatsPanel().c_str());
  return 0;
}
