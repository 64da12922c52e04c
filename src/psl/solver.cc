#include "psl/solver.h"

#include <algorithm>
#include <cmath>

#include "util/timer.h"

namespace tecore {
namespace psl {

namespace {

/// Soft-truth threshold for discretization.
constexpr double kRoundingThreshold = 0.5;
/// Passes of the greedy repair of hard clauses violated after rounding.
constexpr int kMaxRepairPasses = 20;

bool ClauseSatisfied(const ground::GroundClause& clause,
                     const std::vector<bool>& values) {
  for (int32_t lit : clause.literals) {
    if (values[ground::LiteralAtom(lit)] == ground::LiteralSign(lit)) {
      return true;
    }
  }
  return false;
}

}  // namespace

PslSolver::PslSolver(const ground::GroundNetwork& network,
                     PslSolverOptions options)
    : network_(network), options_(options) {}

Result<PslSolution> PslSolver::Solve() {
  ground::ComponentPartition components;
  if (options_.use_components) components.Build(network_);
  return Solve(&components);
}

Result<PslSolution> PslSolver::Solve(ground::ComponentPartition* components) {
  Timer timer;
  PslSolution solution;

  if (!options_.use_components) {
    HlMrf mrf = BuildHlMrf(network_);
    AdmmSolver admm(mrf);
    AdmmResult admm_result = admm.Solve();
    solution.truth_values = admm_result.x;
    solution.energy = admm_result.energy;
    solution.admm_converged = admm_result.converged;
    solution.admm_iterations = admm_result.iterations;
    solution.num_components = 1;
    solution.largest_component = network_.NumAtoms();
  } else {
    // The consensus objective is separable across connected components:
    // run ADMM on each unsolved component and record its local solution as
    // the partition's atom state. Atoms in clause-free components keep
    // ADMM's 0.5 initial value, matching the monolithic path, and the
    // energy is reduced in component order.
    const std::vector<uint32_t> todo = components->Unsolved();
    for (const uint32_t c : todo) {
      const ground::IdSpan<ground::AtomId> atoms = components->atoms(c);
      HlMrf mrf = BuildComponentHlMrf(network_, atoms, components->clauses(c));
      AdmmSolver admm(mrf);
      const AdmmResult result = admm.Solve();
      ground::ComponentOutcome outcome;
      outcome.objective = result.energy;
      outcome.steps = static_cast<uint64_t>(result.iterations);
      outcome.exact = result.converged;
      components->set_outcome(c, outcome);
      for (size_t local = 0; local < atoms.size(); ++local) {
        components->set_atom_state(
            atoms[local], local < result.x.size() ? result.x[local] : 0.5);
      }
    }
    solution.solved_components = todo.size();
    solution.reused_components = components->NumWithClauses() - todo.size();

    solution.truth_values.assign(network_.NumAtoms(), 0.5);
    solution.num_components = components->size();
    solution.admm_converged = true;
    for (uint32_t c = 0; c < components->size(); ++c) {
      const ground::IdSpan<ground::AtomId> atoms = components->atoms(c);
      solution.largest_component =
          std::max(solution.largest_component, atoms.size());
      if (!components->has_clauses(c)) continue;
      for (ground::AtomId atom : atoms) {
        solution.truth_values[atom] = components->atom_state(atom);
      }
      const ground::ComponentOutcome& outcome = components->outcome(c);
      solution.energy += outcome.objective;
      solution.admm_converged = solution.admm_converged && outcome.exact;
      solution.admm_iterations = std::max(
          solution.admm_iterations, static_cast<int>(outcome.steps));
    }
  }

  // Discretize.
  const size_t n = network_.NumAtoms();
  solution.atom_values.assign(n, false);
  for (size_t i = 0; i < n; ++i) {
    solution.atom_values[i] = solution.truth_values[i] >= kRoundingThreshold;
  }

  // Greedy repair: per-atom signed prior weight == cost of keeping the atom
  // "true" (negative prior) or "false" (positive prior).
  std::vector<double> prior(n, 0.0);
  for (const ground::GroundClause& clause : network_.clauses()) {
    if (clause.hard || clause.literals.size() != 1) continue;
    const int32_t lit = clause.literals[0];
    prior[ground::LiteralAtom(lit)] +=
        ground::LiteralSign(lit) ? clause.weight : -clause.weight;
  }
  for (int pass = 0; pass < kMaxRepairPasses; ++pass) {
    size_t flips_this_pass = 0;
    for (const ground::GroundClause& clause : network_.clauses()) {
      if (!clause.hard || ClauseSatisfied(clause, solution.atom_values)) {
        continue;
      }
      // Flip the literal whose flip has the lowest prior cost.
      int32_t best_lit = clause.literals[0];
      double best_cost = 1e300;
      for (int32_t lit : clause.literals) {
        const ground::AtomId atom = ground::LiteralAtom(lit);
        // Making `lit` true means setting atom = sign(lit).
        const double cost = ground::LiteralSign(lit)
                                ? -prior[atom]   // pay when prior says false
                                : prior[atom];   // pay when prior says true
        if (cost < best_cost) {
          best_cost = cost;
          best_lit = lit;
        }
      }
      solution.atom_values[ground::LiteralAtom(best_lit)] =
          ground::LiteralSign(best_lit);
      ++flips_this_pass;
    }
    solution.repair_flips += flips_this_pass;
    if (flips_this_pass == 0) break;
  }

  // Score the Boolean state against the weighted ground clauses.
  double satisfied = 0.0, violated = 0.0;
  bool feasible = true;
  for (const ground::GroundClause& clause : network_.clauses()) {
    const bool sat = ClauseSatisfied(clause, solution.atom_values);
    if (clause.hard) {
      feasible = feasible && sat;
    } else if (sat) {
      satisfied += clause.weight;
    } else {
      violated += clause.weight;
    }
  }
  solution.objective = satisfied;
  solution.violated_weight = violated;
  solution.feasible = feasible;
  solution.solve_time_ms = timer.ElapsedMillis();
  return solution;
}

}  // namespace psl
}  // namespace tecore
