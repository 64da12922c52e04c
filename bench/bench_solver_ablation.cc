// A2 — MLN backend ablation: exact MaxSAT B&B (what mln::MlnMapSolver
// runs) vs ILP+CPA (the paper's nRockIt configuration) vs one-shot ILP vs
// WalkSAT. Each backend decides every component of one ComponentPartition,
// and the objectives are summed in canonical component order, as
// MlnMapSolver sums them.
//
// Checks: (i) the exact backends agree on the objective; (ii) cutting
// planes activate only a fraction of the clauses; (iii) local search gets
// close without optimality proofs.

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>

#include "datagen/generators.h"
#include "ground/components.h"
#include "ground/grounder.h"
#include "maxsat/exact.h"
#include "maxsat/local_search.h"
#include "mln/cutting_plane.h"
#include "mln/translation.h"
#include "rules/library.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {
using namespace tecore;  // NOLINT

struct Backend {
  std::string name;
  std::function<maxsat::MaxSatResult(const maxsat::Wcnf&)> solve;
};

}  // namespace

int main() {
  std::printf("=== A2: MLN solver backend ablation (FootballDB) ===\n\n");
  datagen::FootballDbOptions gen;
  gen.num_players = 1500;
  datagen::GeneratedKg kg = datagen::GenerateFootballDb(gen);
  auto constraints = rules::FootballConstraints();
  if (!constraints.ok()) return 1;
  ground::Grounder grounder(&kg.graph, *constraints);
  auto grounding = grounder.Run();
  if (!grounding.ok()) {
    std::fprintf(stderr, "grounding failed\n");
    return 1;
  }
  std::printf("ground network: %s atoms, %s clauses\n\n",
              FormatWithCommas(static_cast<int64_t>(
                  grounding->network.NumAtoms())).c_str(),
              FormatWithCommas(static_cast<int64_t>(
                  grounding->network.NumClauses())).c_str());

  const ground::GroundNetwork& network = grounding->network;
  ground::ComponentPartition components;
  components.Build(network);
  maxsat::WalkSatOptions walksat;
  walksat.max_flips = 500'000;
  const ilp::BranchBoundSolver::Options ilp;
  const Backend backends[] = {
      {"exact-maxsat",
       [](const maxsat::Wcnf& w) {
         return maxsat::ExactMaxSatSolver(w).Solve();
       }},
      {"ilp-cpa",
       [&ilp](const maxsat::Wcnf& w) { return mln::SolveWithCpa(w, ilp); }},
      {"ilp-direct",
       [&ilp](const maxsat::Wcnf& w) {
         return mln::SolveWithIlpDirect(w, ilp);
       }},
      {"walksat",
       [&walksat](const maxsat::Wcnf& w) {
         return maxsat::WalkSatSolver(w, walksat).Solve();
       }},
  };

  Table table({"backend", "time ms", "objective", "optimal", "feasible"});
  double exact_objective = -1;
  bool exact_backends_agree = true;
  for (const Backend& backend : backends) {
    Timer timer;
    double objective = 0.0;
    bool optimal = true, feasible = true;
    for (uint32_t c = 0; c < components.size(); ++c) {
      if (!components.has_clauses(c)) continue;
      const maxsat::MaxSatResult result = backend.solve(
          mln::BuildComponentWcnf(network, components.atoms(c),
                                  components.clauses(c)));
      objective += result.satisfied_weight;
      optimal = optimal && result.optimal;
      feasible = feasible && result.feasible;
    }
    const double ms = timer.ElapsedMillis();
    if (optimal) {
      if (exact_objective < 0) {
        exact_objective = objective;
      } else if (std::abs(objective - exact_objective) > 1e-6) {
        exact_backends_agree = false;
      }
    }
    table.AddRow({backend.name, StringPrintf("%.0f", ms),
                  StringPrintf("%.2f", objective), optimal ? "yes" : "no",
                  feasible ? "yes" : "NO"});
  }
  std::printf("%s\n", table.ToAscii().c_str());
  std::printf("exact backends agree on the MAP objective: %s\n\n",
              exact_backends_agree ? "yes (MATCH)" : "NO (MISMATCH)");

  // Cutting-plane effectiveness on the largest component-joined instance.
  maxsat::Wcnf wcnf = mln::BuildWcnf(network);
  mln::CpaStats stats;
  auto cpa = mln::SolveWithCpa(wcnf, ilp, &stats);
  std::printf("CPA on the monolithic instance: %d iterations, "
              "%zu/%zu clauses activated (%.1f%%), feasible=%s\n",
              stats.iterations, stats.final_active_clauses, wcnf.NumClauses(),
              100.0 * static_cast<double>(stats.final_active_clauses) /
                  static_cast<double>(wcnf.NumClauses()),
              cpa.feasible ? "yes" : "NO");
  std::printf("shape (CPA activates only violated constraints): %s\n",
              stats.final_active_clauses < wcnf.NumClauses() ? "MATCH"
                                                             : "MISMATCH");
  return exact_backends_agree ? 0 : 1;
}
