// A3 — grounding ablations: semi-naive delta evaluation of the fixpoint
// and connected-component decomposition at solve time.
//
// `--json out.json` additionally writes the measurements machine-readably
// (see util/bench_json.h), each record stamped with `hw_threads`, so
// successive changes can track the perf trajectory.

#include <cstdio>
#include <cstring>
#include <string>

#include "datagen/generators.h"
#include "ground/grounder.h"
#include "mln/solver.h"
#include "rules/library.h"
#include "util/bench_json.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {
using namespace tecore;  // NOLINT

double GroundOnce(datagen::GeneratedKg* kg, const rules::RuleSet& rules,
                  const ground::GroundingOptions& options, size_t* atoms,
                  size_t* clauses) {
  Timer timer;
  ground::Grounder grounder(&kg->graph, rules, options);
  auto result = grounder.Run();
  if (!result.ok()) return -1;
  if (atoms != nullptr) *atoms = result->network.NumAtoms();
  if (clauses != nullptr) *clauses = result->network.NumClauses();
  return timer.ElapsedMillis();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "usage: bench_grounding [--json out]\n");
        return 2;
      }
      json_path = argv[++i];
    }
  }
  BenchJson json("bench_grounding");
  const double hw_threads = util::HardwareThreads();

  std::printf("=== A3: grounding & decomposition ablation ===\n\n");

  // ------------------------------------------------- semi-naive fixpoint
  // The full F ∪ C rule set chains inference rules (playsFor -> worksFor
  // -> livesIn), so grounding runs several fixpoint rounds. Naive
  // evaluation re-grounds every rule against all atoms each round and
  // deduplicates; semi-naive only enumerates bindings touching the
  // round's frontier — same network by construction, much less join work.
  auto constraints = rules::FootballConstraints();
  auto inference = rules::FootballInferenceRules();
  if (!constraints.ok() || !inference.ok()) {
    std::fprintf(stderr, "rules failed to parse\n");
    return 1;
  }
  rules::RuleSet full = *constraints;
  full.Merge(*inference);

  Table delta_table({"players", "naive ms", "semi-naive ms", "speedup",
                     "network (equal)"});
  bool networks_match = true;
  for (size_t players : {500, 1000, 2000}) {
    datagen::FootballDbOptions gen;
    gen.num_players = players;
    datagen::GeneratedKg kg1 = datagen::GenerateFootballDb(gen);
    datagen::GeneratedKg kg2 = datagen::GenerateFootballDb(gen);
    ground::GroundingOptions naive_options;
    naive_options.semi_naive = false;
    ground::GroundingOptions delta_options;
    size_t atoms_naive = 0, clauses_naive = 0;
    size_t atoms_delta = 0, clauses_delta = 0;
    double naive =
        GroundOnce(&kg1, full, naive_options, &atoms_naive, &clauses_naive);
    double delta =
        GroundOnce(&kg2, full, delta_options, &atoms_delta, &clauses_delta);
    if (naive < 0 || delta < 0) return 1;
    const bool match =
        atoms_naive == atoms_delta && clauses_naive == clauses_delta;
    networks_match = networks_match && match;
    delta_table.AddRow({std::to_string(players), StringPrintf("%.1f", naive),
                        StringPrintf("%.1f", delta),
                        StringPrintf("%.2fx", naive / delta),
                        match ? "yes" : "NO"});
    json.NewRecord(StringPrintf("seminaive/players=%zu", players));
    json.Metric("hw_threads", hw_threads);
    json.Metric("naive_ms", naive);
    json.Metric("seminaive_ms", delta);
    json.Metric("speedup", naive / delta);
    json.Metric("atoms", static_cast<double>(atoms_delta));
    json.Metric("clauses", static_cast<double>(clauses_delta));
  }
  std::printf("%s\n", delta_table.ToAscii().c_str());
  std::printf("shape (delta evaluation, same ground network): %s\n\n",
              networks_match ? "MATCH" : "MISMATCH");

  // Component decomposition: exact MAP per component (provably optimal)
  // vs one monolithic branch & bound under a node budget.
  datagen::FootballDbOptions gen;
  gen.num_players = 1200;
  datagen::GeneratedKg kg = datagen::GenerateFootballDb(gen);
  ground::Grounder grounder(&kg.graph, *constraints);
  auto grounding = grounder.Run();
  if (!grounding.ok()) return 1;

  Table solve_table({"mode", "time ms", "objective", "proof", "components"});
  double component_objective = 0.0, monolithic_objective = 0.0;
  for (bool use_components : {true, false}) {
    mln::MlnSolverOptions options;
    options.use_components = use_components;
    options.exact_var_limit = use_components ? 10'000 : 100'000;
    // The monolithic search cannot prove optimality (its bound is global
    // and weak); give it a fixed budget and report the anytime result.
    if (!use_components) options.exact.max_nodes = 2'000'000;
    Timer timer;
    mln::MlnMapSolver solver(grounding->network, options);
    auto solution = solver.Solve();
    if (!solution.ok()) return 1;
    const double ms = timer.ElapsedMillis();
    (use_components ? component_objective : monolithic_objective) =
        solution->objective;
    solve_table.AddRow({use_components ? "per-component" : "monolithic",
                        StringPrintf("%.0f", ms),
                        StringPrintf("%.2f", solution->objective),
                        solution->optimal ? "proven" : "budget hit",
                        std::to_string(solution->num_components)});
    json.NewRecord(use_components ? "solve/per-component"
                                  : "solve/monolithic");
    json.Metric("hw_threads", hw_threads);
    json.Metric("time_ms", ms);
    json.Metric("objective", solution->objective);
    json.Metric("components", static_cast<double>(solution->num_components));
  }
  std::printf("%s\n", solve_table.ToAscii().c_str());
  std::printf("shape (decomposition: provably optimal AND >= anytime "
              "monolithic): %s\n",
              component_objective >= monolithic_objective - 1e-6
                  ? "MATCH"
                  : "MISMATCH");

  if (!json_path.empty() && !json.WriteFile(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
