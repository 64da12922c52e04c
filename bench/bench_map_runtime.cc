// E3 — "Performance of MAP Inference" (paper §3).
//
// Paper: on FootballDB, MAP inference takes 12,181 ms with nRockIt (MLN,
// ILP-based) and 6,129 ms with nPSL, averaged over 10 runs — i.e. nPSL is
// ~2x faster and the paper concludes "MLN solvers do not scale well".
//
// This bench reproduces the protocol in two parts (see EXPERIMENTS.md):
//
//  (a) constraints-only FootballDB, 10 runs per backend. Here the ground
//      network decomposes per player; our exact MLN backend exploits that
//      (a decomposition the original nRockIt stack lacked) and is actually
//      *faster* than ADMM — an honest deviation, reported as such.
//
//  (b) the paper's full setting map(θ(G), F ∪ C): the livesIn inference
//      rule joins players through shared team-location facts, coupling the
//      ground network into one giant component. Exact MLN MAP (with proof)
//      blows up combinatorially while nPSL stays near-linear — the
//      expressiveness-vs-scalability shape the paper reports, with the
//      crossover made explicit.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/resolver.h"
#include "datagen/generators.h"
#include "rules/library.h"
#include "util/bench_json.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {
using namespace tecore;  // NOLINT

struct RunStats {
  double mean_ms = 0.0;
  double min_ms = 1e300;
  double max_ms = 0.0;
  double objective = 0.0;
  bool feasible = true;
  bool optimal = true;
};

core::ResolveOptions MakeOptions(rules::SolverKind solver,
                                 double mln_time_budget_ms) {
  core::ResolveOptions options;
  options.solver = solver;
  if (mln_time_budget_ms > 0) {
    // Coupled setting: let the exact engine run (no WalkSAT fallback) but
    // under an explicit proof budget.
    options.mln.exact_var_limit = 10'000'000;
    options.mln.exact.time_limit_ms = mln_time_budget_ms;
    options.mln.exact.max_nodes = UINT64_MAX;
  }
  return options;
}

RunStats Measure(const rules::RuleSet& rules, rules::SolverKind solver,
                 int runs, size_t players, double mln_time_budget_ms) {
  RunStats stats;
  for (int run = 0; run < runs; ++run) {
    datagen::FootballDbOptions gen;
    gen.num_players = players;
    datagen::GeneratedKg kg = datagen::GenerateFootballDb(gen);
    core::ResolveOptions options = MakeOptions(solver, mln_time_budget_ms);
    Timer timer;
    core::Resolver resolver(&kg.graph, rules, options);
    auto result = resolver.Run();
    const double ms = timer.ElapsedMillis();
    if (!result.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   result.status().ToString().c_str());
      stats.feasible = false;
      return stats;
    }
    stats.mean_ms += ms;
    stats.min_ms = std::min(stats.min_ms, ms);
    stats.max_ms = std::max(stats.max_ms, ms);
    stats.objective = result->objective;
    stats.feasible = stats.feasible && result->feasible;
    stats.optimal = stats.optimal && result->optimal;
  }
  stats.mean_ms /= runs;
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  int runs = 10;  // paper: "averaged over 10 runs"
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "usage: bench_map_runtime [runs] [--json out]\n");
        return 2;
      }
      json_path = argv[++i];
    } else {
      runs = std::atoi(argv[i]);
    }
  }
  BenchJson json("bench_map_runtime");
  const double hw_threads = util::HardwareThreads();

  auto constraints = rules::FootballConstraints();
  auto inference = rules::FootballInferenceRules();
  if (!constraints.ok() || !inference.ok()) {
    std::fprintf(stderr, "rules failed to parse\n");
    return 1;
  }

  // ---------------------------------------------------------------- (a)
  std::printf("=== E3(a): MAP runtime, constraints only (decoupled) ===\n");
  std::printf("workload: FootballDB defaults (>13K playsFor, >6K birthDate,"
              " noise 1.0), %d runs/backend\n\n", runs);
  RunStats mln_a = Measure(*constraints, rules::SolverKind::kMln, runs,
                           6500, /*mln_time_budget_ms=*/0);
  RunStats psl_a = Measure(*constraints, rules::SolverKind::kPsl, runs,
                           6500, 0);
  Table table_a({"backend", "mean ms", "min ms", "max ms", "objective",
                 "exact", "feasible"});
  table_a.AddRow({"MLN (exact MaxSAT, per-component)",
                  StringPrintf("%.0f", mln_a.mean_ms),
                  StringPrintf("%.0f", mln_a.min_ms),
                  StringPrintf("%.0f", mln_a.max_ms),
                  StringPrintf("%.1f", mln_a.objective),
                  mln_a.optimal ? "proven" : "no",
                  mln_a.feasible ? "yes" : "NO"});
  table_a.AddRow({"nPSL (HL-MRF, ADMM)",
                  StringPrintf("%.0f", psl_a.mean_ms),
                  StringPrintf("%.0f", psl_a.min_ms),
                  StringPrintf("%.0f", psl_a.max_ms),
                  StringPrintf("%.1f", psl_a.objective), "relaxation",
                  psl_a.feasible ? "yes" : "NO"});
  std::printf("%s\n", table_a.ToAscii().c_str());
  std::printf("note: per-player decomposition makes exact MAP faster than\n"
              "ADMM here — an improvement over the paper's stack; the\n"
              "paper's ordering appears in the coupled setting below.\n\n");
  json.NewRecord("decoupled/mln");
  json.Metric("hw_threads", hw_threads);
  json.Metric("mean_ms", mln_a.mean_ms);
  json.Metric("objective", mln_a.objective);
  json.NewRecord("decoupled/psl");
  json.Metric("hw_threads", hw_threads);
  json.Metric("mean_ms", psl_a.mean_ms);
  json.Metric("objective", psl_a.objective);

  // ---------------------------------------------------------------- (b)
  std::printf("=== E3(b): MAP runtime, F ∪ C (livesIn couples players) ===\n");
  std::printf("rules: fb1 (worksFor), fb2 (livesIn via locatedIn), fb3 "
              "(TeenPlayer) + the 3 constraints\n");
  const double budget_ms = 5'000;
  std::printf("exact proof budget per run: %.0f ms\n\n", budget_ms);
  rules::RuleSet full = *constraints;
  full.Merge(*inference);

  Table table_b({"players", "nRockIt ms", "proof", "nPSL ms", "ratio"});
  double final_ratio = 0.0;
  bool psl_wins_at_scale = false;
  for (size_t players : {10, 20, 40, 100, 400, 1600}) {
    RunStats mln_b = Measure(full, rules::SolverKind::kMln, 1, players,
                             budget_ms);
    RunStats psl_b = Measure(full, rules::SolverKind::kPsl, 1, players, 0);
    const double ratio = psl_b.mean_ms > 0 ? mln_b.mean_ms / psl_b.mean_ms
                                           : 0.0;
    final_ratio = ratio;
    psl_wins_at_scale = ratio > 1.0;
    table_b.AddRow({std::to_string(players),
                    StringPrintf("%.0f", mln_b.mean_ms),
                    mln_b.optimal ? "proven" : "budget hit",
                    StringPrintf("%.0f", psl_b.mean_ms),
                    StringPrintf("%.2fx", ratio)});
    json.NewRecord(StringPrintf("coupled/players=%zu", players));
    json.Metric("hw_threads", hw_threads);
    json.Metric("mln_ms", mln_b.mean_ms);
    json.Metric("psl_ms", psl_b.mean_ms);
    json.Metric("ratio", ratio);
  }
  std::printf("%s\n", table_b.ToAscii().c_str());

  std::printf("PAPER   : nRockIt 12,181 ms vs nPSL 6,129 ms "
              "(nPSL ~2x faster)\n");
  std::printf("MEASURED (coupled, largest size): nRockIt/nPSL ratio "
              "%.2fx\n", final_ratio);
  std::printf("shape (nPSL faster once rules couple the network): %s\n",
              psl_wins_at_scale ? "MATCH" : "MISMATCH");
  if (!json_path.empty() && !json.WriteFile(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return psl_wins_at_scale ? 0 : 1;
}
