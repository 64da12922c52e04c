// E1 — the paper's running example (Figures 1, 4, 6 -> Figure 7).
//
// Reproduces: given the CR UTKG (Fig. 1), inference rules f1-f3 (Fig. 4)
// and constraints c1-c3 (Fig. 6), MAP inference removes temporal fact (5)
// (CR, coach, Napoli, [2001,2003]) because of constraint c2 and keeps
// facts (1)-(4) (Fig. 7), deriving worksFor/livesIn facts along the way.
// Both backends (nRockIt-style MLN and nPSL) are exercised.

#include <cstdio>
#include <string>

#include "core/resolver.h"
#include "datagen/generators.h"
#include "rules/library.h"
#include "util/string_util.h"

namespace {

using namespace tecore;  // NOLINT

int RunBackend(rules::SolverKind solver) {
  rdf::TemporalGraph graph = datagen::RunningExampleGraph(true);
  auto inference = rules::PaperInferenceRules();
  auto constraints = rules::PaperConstraints();
  if (!inference.ok() || !constraints.ok()) {
    std::fprintf(stderr, "rule parsing failed\n");
    return 1;
  }
  rules::RuleSet rules = *inference;
  rules.Merge(*constraints);

  core::ResolveOptions options;
  options.solver = solver;
  core::Resolver resolver(&graph, rules, options);
  auto result = resolver.Run();
  if (!result.ok()) {
    std::fprintf(stderr, "resolution failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("--- backend: %s ---\n", result->solver_name.c_str());
  std::printf("input UTKG G (Fig. 1):\n");
  for (rdf::FactId id = 0; id < 5; ++id) {
    std::printf("  (%u) %s\n", id + 1, graph.FactToString(id).c_str());
  }
  std::printf("G_inferred after MAP (Fig. 7) — kept input facts:\n");
  bool napoli_removed = true;
  for (rdf::FactId id : result->kept_facts) {
    if (id < 5) std::printf("  (%u) %s\n", id + 1, graph.FactToString(id).c_str());
    if (graph.dict().Lookup(graph.fact(id).object).lexical() == "Napoli") {
      napoli_removed = false;
    }
  }
  std::printf("removed (noisy) facts:\n");
  for (rdf::FactId id : result->removed_facts) {
    if (id < 5) std::printf("  (%u) %s\n", id + 1, graph.FactToString(id).c_str());
  }
  std::printf("derived facts (f1-f3):\n");
  for (const core::DerivedFact& derived : result->derived_facts) {
    std::printf("  %s  score=%.3f\n",
                graph.FactToString(derived.fact).c_str(),
                derived.score);
  }
  std::printf("%s", result->StatsPanel().c_str());
  std::printf("PAPER: fact (5) (CR, coach, Napoli) removed by c2  |  "
              "MEASURED: %s\n\n",
              napoli_removed ? "removed (MATCH)" : "KEPT (MISMATCH)");
  return napoli_removed ? 0 : 1;
}

}  // namespace

int main() {
  std::printf("=== E1: running example (paper Figs. 1/4/6 -> Fig. 7) ===\n\n");
  int rc = 0;
  rc |= RunBackend(rules::SolverKind::kMln);
  rc |= RunBackend(rules::SolverKind::kPsl);
  return rc;
}
