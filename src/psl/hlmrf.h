#ifndef TECORE_PSL_HLMRF_H_
#define TECORE_PSL_HLMRF_H_

#include <cstdint>
#include <vector>

#include "ground/components.h"
#include "ground/ground_network.h"

namespace tecore {
namespace psl {

/// \brief One hinge-loss potential: weight * max(0, a^T x + b)^p, p in {1,2}.
///
/// A ground clause l1 ∨ ... ∨ lm relaxes (Lukasiewicz) to the distance to
/// satisfaction d(x) = max(0, 1 - Σ t(l_i)) with t(+a)=x_a, t(¬a)=1-x_a;
/// i.e. coefficients -1 for positive literals, +1 for negative ones, and
/// offset 1 - #negative.
struct HingePotential {
  std::vector<std::pair<int, double>> coefs;  // (variable, coefficient)
  double offset = 0.0;
  double weight = 0.0;
  bool squared = false;
};

/// \brief One hard linear constraint: a^T x + b <= 0.
struct HardLinearConstraint {
  std::vector<std::pair<int, double>> coefs;
  double offset = 0.0;
};

/// \brief A hinge-loss Markov random field over [0,1]^n.
///
/// MAP inference minimizes total hinge energy subject to the hard
/// constraints — a convex problem; see admm.h for the solver.
class HlMrf {
 public:
  HlMrf() = default;
  explicit HlMrf(int num_vars) : num_vars_(num_vars) {}

  int num_vars() const { return num_vars_; }
  void EnsureVars(int n) {
    if (n > num_vars_) num_vars_ = n;
  }

  void AddPotential(HingePotential potential);
  void AddConstraint(HardLinearConstraint constraint);

  const std::vector<HingePotential>& potentials() const { return potentials_; }
  const std::vector<HardLinearConstraint>& constraints() const {
    return constraints_;
  }

  /// \brief Total weighted hinge energy at `x`.
  double Energy(const std::vector<double>& x) const;

 private:
  int num_vars_ = 0;
  std::vector<HingePotential> potentials_;
  std::vector<HardLinearConstraint> constraints_;
};

/// \brief nPSL translation: ground network -> HL-MRF.
///
/// Numerical and Allen conditions were already evaluated during grounding
/// (that is the "numerical extension" nPSL adds on top of PSL), so every
/// ground clause relaxes to a linear hinge (soft) or a linear constraint
/// (hard).
HlMrf BuildHlMrf(const ground::GroundNetwork& network);

/// \brief nPSL translation of a single connected component (ascending
/// atoms and clause indices, as ground::ComponentPartition lists them);
/// variable i is `atoms[i]` (mirrors mln::BuildComponentWcnf).
HlMrf BuildComponentHlMrf(const ground::GroundNetwork& network,
                          ground::IdSpan<ground::AtomId> atoms,
                          ground::IdSpan<uint32_t> clauses);

}  // namespace psl
}  // namespace tecore

#endif  // TECORE_PSL_HLMRF_H_
