#ifndef TECORE_PSL_SOLVER_H_
#define TECORE_PSL_SOLVER_H_

#include <cstdint>
#include <vector>

#include "ground/components.h"
#include "ground/ground_network.h"
#include "psl/admm.h"
#include "psl/hlmrf.h"
#include "util/status.h"

namespace tecore {
namespace psl {

/// \brief nPSL solver configuration. ADMM runs with AdmmOptions{}.
struct PslSolverOptions {
  /// Run ADMM per connected component instead of on the monolithic MRF.
  /// The consensus problem is separable across components, so at full
  /// convergence the optima coincide; with the tolerance-based stopping
  /// rule, truth values can differ from the monolithic path within the
  /// residual tolerance (near-threshold atoms may round differently).
  /// Per-component runs converge in fewer iterations; disable to
  /// reproduce pre-decomposition outputs.
  bool use_components = true;
};

/// \brief Outcome of the PSL pipeline.
struct PslSolution {
  /// Continuous MAP state (soft truth values in [0,1]).
  std::vector<double> truth_values;
  /// Discretized (and repaired) Boolean state, index == AtomId.
  std::vector<bool> atom_values;
  /// Convex objective value (hinge energy) of the continuous state.
  double energy = 0.0;
  /// Satisfied soft weight of the Boolean state, comparable to the MLN
  /// solver's objective.
  double objective = 0.0;
  double violated_weight = 0.0;
  bool feasible = false;
  bool admm_converged = false;
  /// Max iterations over the per-component runs (or the monolithic count).
  int admm_iterations = 0;
  size_t num_components = 0;
  size_t largest_component = 0;
  /// Components with clauses ADMM ran on in this call, and those whose
  /// outcome was reused (carried over or spliced by signature).
  size_t solved_components = 0;
  size_t reused_components = 0;
  size_t repair_flips = 0;
  double solve_time_ms = 0.0;
};

/// \brief nPSL: scalable approximate MAP via the convex HL-MRF relaxation.
///
/// Pipeline: translate ground network -> HL-MRF, run consensus ADMM,
/// threshold soft truths at 0.5, then greedily repair any hard ground
/// clause the rounding broke (flip the literal with the cheapest prior
/// cost). Trades the MLN solver's exactness for near-linear scaling — the
/// paper's expressiveness-vs-scalability axis.
///
/// The per-component path works on a ground::ComponentPartition exactly
/// like mln::MlnMapSolver: ADMM runs only on components with no recorded
/// outcome, each soft-truth vector is recorded as the partition's atom
/// state, and energies are reduced in canonical component order. Rounding,
/// repair and scoring then run over the whole network.
class PslSolver {
 public:
  PslSolver(const ground::GroundNetwork& network,
            PslSolverOptions options = {});

  /// \brief From scratch: partition the network and solve every component.
  Result<PslSolution> Solve();

  /// \brief Run ADMM on the unsolved components of `components` (which
  /// must partition the solver's network) and assemble the solution from
  /// every component's recorded outcome. Ignored (monolithic ADMM) when
  /// `use_components` is off.
  Result<PslSolution> Solve(ground::ComponentPartition* components);

 private:
  const ground::GroundNetwork& network_;
  PslSolverOptions options_;
};

}  // namespace psl
}  // namespace tecore

#endif  // TECORE_PSL_SOLVER_H_
