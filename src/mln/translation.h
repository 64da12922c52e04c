#ifndef TECORE_MLN_TRANSLATION_H_
#define TECORE_MLN_TRANSLATION_H_

#include <vector>

#include "ground/components.h"
#include "ground/ground_network.h"
#include "ilp/branch_bound.h"
#include "maxsat/wcnf.h"

namespace tecore {
namespace mln {

/// \brief Translate the whole ground network into one weighted partial
/// MaxSAT instance (variable i == ground atom i).
maxsat::Wcnf BuildWcnf(const ground::GroundNetwork& network);

/// \brief Translate a single connected component (ascending atoms and
/// clause indices, as ground::ComponentPartition lists them); variable i
/// is `atoms[i]`.
maxsat::Wcnf BuildComponentWcnf(const ground::GroundNetwork& network,
                                ground::IdSpan<ground::AtomId> atoms,
                                ground::IdSpan<uint32_t> clauses);

/// \brief RockIt-style MAP-as-ILP encoding of a WCNF.
///
/// Binary x_v per variable. Soft *unit* clauses fold into the objective
/// (weight on the literal's polarity). Every other soft clause C gets an
/// auxiliary binary z_C with
///     sum_{+l in C} x_l + sum_{-l in C} (1 - x_l) >= z_C
/// and objective term w_C * z_C; hard clauses contribute the same row with
/// rhs 1 and no z. `include_clause[i]==false` omits clause i entirely
/// (used by cutting-plane inference); pass empty to include all.
ilp::IlpProblem BuildIlp(const maxsat::Wcnf& wcnf,
                         const std::vector<bool>& include_clause = {});

}  // namespace mln
}  // namespace tecore

#endif  // TECORE_MLN_TRANSLATION_H_
