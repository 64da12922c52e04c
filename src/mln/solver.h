#ifndef TECORE_MLN_SOLVER_H_
#define TECORE_MLN_SOLVER_H_

#include <cstdint>
#include <vector>

#include "ground/components.h"
#include "ground/ground_network.h"
#include "maxsat/exact.h"
#include "util/status.h"

namespace tecore {
namespace mln {

/// \brief Solver configuration.
struct MlnSolverOptions {
  /// Components with more variables than this run WalkSAT (with its
  /// default options) instead of exact branch & bound — a guard against
  /// pathological blow-ups.
  size_t exact_var_limit = 10'000;
  /// Solve each connected component separately (A3 ablation toggle; the
  /// monolithic path is exponentially slower on anything non-trivial).
  bool use_components = true;
  maxsat::ExactSolverOptions exact;
};

/// \brief MAP solution over the ground network's atoms.
struct MlnSolution {
  /// Truth value per ground atom (index == AtomId).
  std::vector<bool> atom_values;
  /// Total satisfied soft weight (the MAP objective).
  double objective = 0.0;
  /// Total violated soft weight.
  double violated_weight = 0.0;
  bool feasible = false;
  /// Every component solved to proven optimality.
  bool optimal = false;
  size_t num_components = 0;
  size_t largest_component = 0;
  /// Components with clauses a backend ran on in this call, and those
  /// whose outcome was reused (carried over or spliced by signature).
  size_t solved_components = 0;
  size_t reused_components = 0;
  uint64_t search_steps = 0;
  double solve_time_ms = 0.0;
};

/// \brief MAP inference for MLNs: maximizes the weight of satisfied ground
/// formulas subject to hard constraints, component by component, by exact
/// branch & bound MaxSAT (maxsat::ExactMaxSatSolver). The paper's nRockIt
/// configuration (ILP with cutting planes, mln/cutting_plane.h) decides
/// the same objective; tests and benches call it directly as the
/// reference.
///
/// The per-component path works on a ground::ComponentPartition: it solves
/// the components that hold no outcome yet, one after another on the
/// calling thread (they are independent, and both solvers are
/// deterministic given their options), records each outcome and atom value
/// in the partition, then reduces every component's outcome in canonical
/// component order. A partition carried across edits
/// (core::IncrementalResolver) therefore pays solver time only for the
/// components an edit touched, and the objective, feasibility and
/// optimality are bit-identical to a from-scratch solve.
class MlnMapSolver {
 public:
  MlnMapSolver(const ground::GroundNetwork& network,
               MlnSolverOptions options = {});

  /// \brief From scratch: partition the network and solve every component.
  Result<MlnSolution> Solve();

  /// \brief Solve the unsolved components of `components`, which must
  /// partition the solver's network, and assemble the solution from every
  /// component's recorded outcome. Ignored (monolithic solve) when
  /// `use_components` is off.
  Result<MlnSolution> Solve(ground::ComponentPartition* components);

 private:
  const ground::GroundNetwork& network_;
  MlnSolverOptions options_;
};

}  // namespace mln
}  // namespace tecore

#endif  // TECORE_MLN_SOLVER_H_
