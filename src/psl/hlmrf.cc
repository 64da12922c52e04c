#include "psl/hlmrf.h"

#include <algorithm>
#include <cmath>

namespace tecore {
namespace psl {

void HlMrf::AddPotential(HingePotential potential) {
  for (const auto& [v, c] : potential.coefs) EnsureVars(v + 1);
  potentials_.push_back(std::move(potential));
}

void HlMrf::AddConstraint(HardLinearConstraint constraint) {
  for (const auto& [v, c] : constraint.coefs) EnsureVars(v + 1);
  constraints_.push_back(std::move(constraint));
}

double HlMrf::Energy(const std::vector<double>& x) const {
  double energy = 0.0;
  for (const HingePotential& pot : potentials_) {
    double value = pot.offset;
    for (const auto& [v, c] : pot.coefs) value += c * x[static_cast<size_t>(v)];
    double hinge = std::max(0.0, value);
    energy += pot.weight * (pot.squared ? hinge * hinge : hinge);
  }
  return energy;
}

namespace {

/// Relax one ground clause into `mrf`, mapping each atom to a variable
/// via `var_of`.
template <typename VarOf>
void RelaxClause(const ground::GroundClause& clause, VarOf var_of,
                 HlMrf* mrf) {
  // Distance to satisfaction of the disjunction.
  std::vector<std::pair<int, double>> coefs;
  double offset = 1.0;
  coefs.reserve(clause.literals.size());
  for (int32_t lit : clause.literals) {
    const ground::AtomId atom = ground::LiteralAtom(lit);
    const int var = var_of(atom);
    if (ground::LiteralSign(lit)) {
      coefs.emplace_back(var, -1.0);
    } else {
      coefs.emplace_back(var, 1.0);
      offset -= 1.0;
    }
  }
  if (clause.hard) {
    // Must be satisfied: distance <= 0.
    HardLinearConstraint con;
    con.coefs = std::move(coefs);
    con.offset = offset;
    mrf->AddConstraint(std::move(con));
  } else if (clause.weight > 0) {
    HingePotential pot;
    pot.coefs = std::move(coefs);
    pot.offset = offset;
    pot.weight = clause.weight;
    mrf->AddPotential(std::move(pot));
  }
}

}  // namespace

HlMrf BuildHlMrf(const ground::GroundNetwork& network) {
  HlMrf mrf(static_cast<int>(network.NumAtoms()));
  for (const ground::GroundClause& clause : network.clauses()) {
    RelaxClause(
        clause, [](ground::AtomId atom) { return static_cast<int>(atom); },
        &mrf);
  }
  return mrf;
}

HlMrf BuildComponentHlMrf(const ground::GroundNetwork& network,
                          ground::IdSpan<ground::AtomId> atoms,
                          ground::IdSpan<uint32_t> clauses) {
  HlMrf mrf(static_cast<int>(atoms.size()));
  for (uint32_t ci : clauses) {
    RelaxClause(
        network.clauses()[ci],
        [atoms](ground::AtomId atom) {
          return static_cast<int>(ground::LocalAtomIndex(atoms, atom));
        },
        &mrf);
  }
  return mrf;
}

}  // namespace psl
}  // namespace tecore
