// A1 — scalability ablation (paper §4 discussion point: "inference
// expressiveness and scalability (i.e., nRockIt versus PSL)").
//
// Sweeps the UTKG size and times both backends end-to-end (MLN runs the
// pipeline's exact per-component MaxSAT). Expected shape:
// nPSL's advantage grows with size; both scale near-linearly thanks to
// component decomposition (MLN) / convexity (PSL).

#include <cstdio>
#include <vector>

#include "core/resolver.h"
#include "datagen/generators.h"
#include "rules/library.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {
using namespace tecore;  // NOLINT

double RunOnce(size_t players, rules::SolverKind solver) {
  datagen::FootballDbOptions options;
  options.num_players = players;
  datagen::GeneratedKg kg = datagen::GenerateFootballDb(options);
  auto constraints = rules::FootballConstraints();
  if (!constraints.ok()) return -1;
  core::ResolveOptions resolve;
  resolve.solver = solver;
  Timer timer;
  core::Resolver resolver(&kg.graph, *constraints, resolve);
  auto result = resolver.Run();
  if (!result.ok() || !result->feasible) return -1;
  return timer.ElapsedMillis();
}

}  // namespace

int main() {
  std::printf("=== A1: size sweep — MLN vs nPSL ===\n\n");
  Table table({"players", "facts (approx)", "MLN ms", "nPSL ms", "ratio"});
  double mln_small = 0, mln_large = 0, psl_small = 0, psl_large = 0;
  for (size_t players : {250, 500, 1000, 2000, 4000, 8000}) {
    const double mln_ms = RunOnce(players, rules::SolverKind::kMln);
    const double psl_ms = RunOnce(players, rules::SolverKind::kPsl);
    if (mln_ms < 0 || psl_ms < 0) {
      std::fprintf(stderr, "run failed at %zu players\n", players);
      return 1;
    }
    if (players == 250) {
      mln_small = mln_ms;
      psl_small = psl_ms;
    }
    if (players == 8000) {
      mln_large = mln_ms;
      psl_large = psl_ms;
    }
    table.AddRow({std::to_string(players), std::to_string(players * 3),
                  StringPrintf("%.0f", mln_ms), StringPrintf("%.0f", psl_ms),
                  StringPrintf("%.2fx", mln_ms / psl_ms)});
  }
  std::printf("%s\n", table.ToAscii().c_str());
  // On *decoupled* constraints both backends scale near-linearly (the
  // 32x size step should cost well under the 1024x a quadratic blow-up
  // would). The PSL-wins ordering belongs to the coupled setting (E3(b)).
  const bool near_linear = mln_large < mln_small * 150 + 200 &&
                           psl_large < psl_small * 150 + 200;
  std::printf("shape (both backends near-linear on decoupled "
              "constraints): %s\n",
              near_linear ? "MATCH" : "MISMATCH");
  return near_linear ? 0 : 1;
}
