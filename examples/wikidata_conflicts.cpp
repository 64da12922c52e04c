// Wikidata-scale conflict detection and scalable repair.
//
// Mirrors the paper's Fig. 8 scenario: a large UTKG with the Wikidata
// relation mix, conflict detection with the disjointness/functionality
// constraint set, then a scalable repair with the nPSL backend and a
// confidence threshold on derived facts.

#include <cstdio>

#include "core/conflict.h"
#include "core/resolver.h"
#include "datagen/generators.h"
#include "rules/library.h"
#include "util/string_util.h"
#include "util/timer.h"

using namespace tecore;  // NOLINT

int main(int argc, char** argv) {
  size_t target = 100'000;  // keep the example snappy; Fig. 8 uses 243,157
  if (argc > 1) target = static_cast<size_t>(std::atoll(argv[1]));

  datagen::WikidataOptions gen;
  gen.target_facts = target;
  Timer timer;
  datagen::GeneratedKg kg = datagen::GenerateWikidata(gen);
  std::printf("generated %s Wikidata-mix facts in %.0f ms\n",
              FormatWithCommas(static_cast<int64_t>(kg.graph.NumFacts())).c_str(),
              timer.ElapsedMillis());

  auto constraints = rules::WikidataConstraints();
  if (!constraints.ok()) return 1;

  core::ConflictDetector detector(&kg.graph, *constraints);
  auto report = detector.Detect();
  if (!report.ok()) return 1;
  std::printf("\n%s\n", report->StatsPanel(*constraints).c_str());

  // A few sample conflicts, like the demo UI's browsable result list.
  std::printf("sample conflicts:\n");
  for (size_t i = 0; i < report->conflicts().size() && i < 3; ++i) {
    for (rdf::FactId id : report->conflicts()[i].facts) {
      std::printf("  %s\n", kg.graph.FactToString(id).c_str());
    }
    std::printf("  --\n");
  }

  core::ResolveOptions options;
  options.solver = rules::SolverKind::kPsl;  // scalable backend
  options.derived_threshold = 0.5;
  core::Resolver resolver(&kg.graph, *constraints, options);
  auto result = resolver.Run();
  if (!result.ok()) {
    std::fprintf(stderr, "resolve failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%s", result->StatsPanel().c_str());

  // Sanity: the repaired graph is conflict-free.
  rdf::TemporalGraph repaired = result->ConsistentGraph(kg.graph);
  core::ConflictDetector recheck(&repaired, *constraints);
  auto clean = recheck.Detect();
  if (!clean.ok()) return 1;
  std::printf("conflicts remaining after repair: %zu\n",
              clean->NumConflicts());
  return clean->NumConflicts() == 0 ? 0 : 1;
}
