#include "mln/solver.h"

#include <algorithm>

#include "maxsat/local_search.h"
#include "mln/translation.h"
#include "util/logging.h"
#include "util/timer.h"

namespace tecore {
namespace mln {

namespace {

maxsat::MaxSatResult SolveWcnf(const maxsat::Wcnf& wcnf,
                               const MlnSolverOptions& options) {
  if (static_cast<size_t>(wcnf.num_vars()) > options.exact_var_limit) {
    return maxsat::WalkSatSolver(wcnf).Solve();
  }
  return maxsat::ExactMaxSatSolver(wcnf, options.exact).Solve();
}

}  // namespace

MlnMapSolver::MlnMapSolver(const ground::GroundNetwork& network,
                           MlnSolverOptions options)
    : network_(network), options_(options) {}

Result<MlnSolution> MlnMapSolver::Solve() {
  ground::ComponentPartition components;
  if (options_.use_components) components.Build(network_);
  return Solve(&components);
}

Result<MlnSolution> MlnMapSolver::Solve(
    ground::ComponentPartition* components) {
  Timer timer;
  MlnSolution solution;
  solution.atom_values.assign(network_.NumAtoms(), false);
  solution.feasible = true;
  solution.optimal = true;

  if (!options_.use_components) {
    maxsat::Wcnf wcnf = BuildWcnf(network_);
    maxsat::MaxSatResult result = SolveWcnf(wcnf, options_);
    solution.atom_values = result.assignment;
    solution.objective = result.satisfied_weight;
    solution.violated_weight = result.violated_weight;
    solution.feasible = result.feasible;
    solution.optimal = result.optimal;
    solution.num_components = 1;
    solution.largest_component = network_.NumAtoms();
    solution.search_steps = result.search_steps;
    solution.solve_time_ms = timer.ElapsedMillis();
    return solution;
  }

  // Solve what has no outcome yet.
  const std::vector<uint32_t> todo = components->Unsolved();
  for (const uint32_t c : todo) {
    const ground::IdSpan<ground::AtomId> atoms = components->atoms(c);
    maxsat::Wcnf wcnf =
        BuildComponentWcnf(network_, atoms, components->clauses(c));
    const maxsat::MaxSatResult result = SolveWcnf(wcnf, options_);
    ground::ComponentOutcome outcome;
    outcome.objective = result.satisfied_weight;
    outcome.violated = result.violated_weight;
    outcome.steps = result.search_steps;
    outcome.feasible = result.feasible;
    outcome.exact = result.optimal;
    components->set_outcome(c, outcome);
    for (size_t local = 0; local < atoms.size(); ++local) {
      const bool value =
          local < result.assignment.size() && result.assignment[local];
      components->set_atom_state(atoms[local], value ? 1.0 : 0.0);
    }
  }
  solution.solved_components = todo.size();
  solution.reused_components = components->NumWithClauses() - todo.size();

  // Reduce in canonical component order. Atoms of clause-free components
  // stay false (derived atoms with no support; evidence atoms always carry
  // at least their prior).
  solution.num_components = components->size();
  for (uint32_t c = 0; c < components->size(); ++c) {
    const ground::IdSpan<ground::AtomId> atoms = components->atoms(c);
    solution.largest_component =
        std::max(solution.largest_component, atoms.size());
    if (!components->has_clauses(c)) continue;
    const ground::ComponentOutcome& outcome = components->outcome(c);
    solution.feasible = solution.feasible && outcome.feasible;
    solution.optimal = solution.optimal && outcome.exact;
    solution.objective += outcome.objective;
    solution.violated_weight += outcome.violated;
    solution.search_steps += outcome.steps;
    for (ground::AtomId atom : atoms) {
      solution.atom_values[atom] = components->atom_state(atom) != 0.0;
    }
  }
  solution.solve_time_ms = timer.ElapsedMillis();
  return solution;
}

}  // namespace mln
}  // namespace tecore
