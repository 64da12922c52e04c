// Constraint workbench — an interactive REPL standing in for the demo's
// Web UI (paper Figs. 3, 5, 8).
//
// Workflow, mirroring the demonstration script:
//   1. load a UTKG (`load <file>` / `gen football|wikidata [n]`),
//   2. inspect it (`stats`, `complete <prefix>` for predicate
//      auto-completion like the Constraints Editor),
//   3. author rules and constraints (`rule <text>`, `paper-rules`,
//      `football-rules`, `validate mln|psl`, `rules` to list),
//   4. compute (`detect`, `solve mln|psl [threshold]`),
//   5. browse results (conflicts and the repaired KG are printed).
//
// Reads commands from stdin, so it can also be scripted:
//   echo -e "gen football 500\ndetect\nsolve mln" | constraint_workbench

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "api/engine.h"
#include "core/compatibility.h"
#include "datagen/generators.h"
#include "mine/miner.h"
#include "rules/library.h"
#include "rules/validator.h"
#include "util/string_util.h"

using namespace tecore;  // NOLINT

namespace {

void PrintHelp() {
  std::printf(R"(commands:
  load <file.tq>          load a UTKG from disk
  gen football [players]  generate the synthetic FootballDB
  gen wikidata [facts]    generate the Wikidata-mix UTKG
  gen example             load the paper's running example
  stats                   UTKG statistics panel
  complete <prefix>       predicate auto-completion (Constraints Editor)
  rule <rule text>        add a rule/constraint in the rule language
  paper-rules             add the paper's f1-f3 and c1-c3
  football-rules          add the FootballDB constraint set
  rules                   list current rules
  clear-rules             drop all rules
  suggest                 mine candidate constraints from the data
  compat                  Allen-algebra satisfiability check of the rules
  validate [mln|psl]      expressivity check for the chosen solver
  detect                  find conflicting temporal facts
  solve [mln|psl] [thr]   compute the most probable conflict-free KG
  help                    this text
  quit                    exit
)");
}

}  // namespace

int main() {
  // Commands read the engine's current snapshot; every write publishes a
  // new one.
  api::Engine engine;
  std::printf("TeCoRe constraint workbench — type 'help' for commands\n");
  std::string line;
  while (true) {
    std::printf("tecore> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) continue;

    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      PrintHelp();
    } else if (cmd == "load") {
      std::string path;
      in >> path;
      auto loaded = engine.LoadGraphFile(path);
      std::printf("%s\n",
                  loaded.ok() ? "loaded" : loaded.status().ToString().c_str());
    } else if (cmd == "gen") {
      std::string what;
      size_t n = 0;
      in >> what >> n;
      if (what == "football") {
        datagen::FootballDbOptions options;
        if (n > 0) options.num_players = n;
        engine.SetGraph(std::move(datagen::GenerateFootballDb(options).graph));
      } else if (what == "wikidata") {
        datagen::WikidataOptions options;
        if (n > 0) options.target_facts = n;
        engine.SetGraph(std::move(datagen::GenerateWikidata(options).graph));
      } else if (what == "example") {
        engine.SetGraph(datagen::RunningExampleGraph(true));
      } else {
        std::printf("unknown dataset '%s'\n", what.c_str());
        continue;
      }
      std::printf("generated %zu facts\n",
                  engine.snapshot()->graph->NumFacts());
    } else if (cmd == "stats") {
      auto stats = engine.GraphStats();
      std::printf("%s\n", stats.ok() ? stats->ToString().c_str()
                                     : stats.status().ToString().c_str());
    } else if (cmd == "complete") {
      std::string prefix;
      in >> prefix;
      for (const std::string& name :
           engine.snapshot()->CompletePredicate(prefix)) {
        std::printf("  %s\n", name.c_str());
      }
    } else if (cmd == "rule") {
      std::string text;
      std::getline(in, text);
      auto added = engine.AddRulesText(text);
      std::printf("%s\n",
                  added.ok()
                      ? StringPrintf("added %zu rule(s)", added->added).c_str()
                      : added.status().ToString().c_str());
    } else if (cmd == "paper-rules") {
      engine.AddRules(*rules::PaperInferenceRules());
      engine.AddRules(*rules::PaperConstraints());
      std::printf("added f1-f3 and c1-c3\n");
    } else if (cmd == "football-rules") {
      engine.AddRules(*rules::FootballConstraints());
      std::printf("added the FootballDB constraint set\n");
    } else if (cmd == "rules") {
      std::printf("%s", engine.snapshot()->rules->ToString().c_str());
    } else if (cmd == "clear-rules") {
      engine.ClearRules();
    } else if (cmd == "suggest") {
      auto report = engine.snapshot()->MineConstraints();
      if (!report.ok()) {
        std::printf("%s\n", report.status().ToString().c_str());
        continue;
      }
      std::printf("%s", mine::WriteMinedRulesText(*report, {}).c_str());
    } else if (cmd == "compat") {
      core::CompatibilityReport report =
          core::AnalyzeConstraintCompatibility(*engine.snapshot()->rules);
      if (report.possibly_consistent) {
        std::printf("constraint set is jointly realizable (predicate-level "
                    "Allen check)\n");
      }
      for (const std::string& problem : report.problems) {
        std::printf("  %s\n", problem.c_str());
      }
    } else if (cmd == "validate") {
      std::string which;
      in >> which;
      rules::SolverKind solver =
          which == "psl" ? rules::SolverKind::kPsl : rules::SolverKind::kMln;
      auto problems =
          rules::CollectProblems(*engine.snapshot()->rules, solver);
      if (problems.empty()) {
        std::printf("all rules valid for %s\n",
                    std::string(rules::SolverKindName(solver)).c_str());
      }
      for (const std::string& problem : problems) {
        std::printf("  %s\n", problem.c_str());
      }
    } else if (cmd == "detect") {
      const auto snap = engine.snapshot();
      auto detected = snap->DetectConflicts();
      if (!detected.ok()) {
        std::printf("%s\n", detected.status().ToString().c_str());
        continue;
      }
      const core::ConflictReport& report = **detected;
      std::printf("%s", report.StatsPanel(*snap->rules).c_str());
      for (size_t i = 0; i < report.conflicts().size() && i < 5; ++i) {
        std::printf("%s",
                    snap->DescribeConflict(report.conflicts()[i]).c_str());
      }
      if (report.conflicts().size() > 5) {
        std::printf("  ... %zu more\n", report.conflicts().size() - 5);
      }
    } else if (cmd == "solve") {
      std::string which;
      double threshold = 0.0;
      in >> which >> threshold;
      core::ResolveOptions options;
      options.solver =
          which == "psl" ? rules::SolverKind::kPsl : rules::SolverKind::kMln;
      options.derived_threshold = threshold;
      auto solved = engine.Solve(options);
      if (!solved.ok()) {
        std::printf("%s\n", solved.status().ToString().c_str());
        continue;
      }
      const core::ResolveResult& result = *solved->result;
      std::printf("%s", result.StatsPanel().c_str());
      const rdf::TemporalGraph repaired =
          result.ConsistentGraph(*solved->snapshot->graph);
      if (repaired.NumFacts() <= 30) {
        std::printf("consistent KG:\n");
        for (rdf::FactId id = 0; id < repaired.NumFacts(); ++id) {
          std::printf("  %s\n", repaired.FactToString(id).c_str());
        }
      }
    } else {
      std::printf("unknown command '%s' — try 'help'\n", cmd.c_str());
    }
  }
  return 0;
}
