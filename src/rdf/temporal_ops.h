#ifndef TECORE_RDF_TEMPORAL_OPS_H_
#define TECORE_RDF_TEMPORAL_OPS_H_

#include <vector>

#include "rdf/graph.h"

namespace tecore {
namespace rdf {

/// \brief Difference between two UTKGs by quad identity (s,p,o,interval).
struct GraphDiff {
  /// Facts present in `before` but not `after` (e.g. removed by repair).
  std::vector<TemporalFact> removed;
  /// Facts present in `after` but not `before` (e.g. derived by rules).
  std::vector<TemporalFact> added;
  /// Quads present in both but with different confidence.
  std::vector<std::pair<TemporalFact, TemporalFact>> rescored;
};

/// \brief Compute the diff (both sides rendered against `after`'s
/// dictionary in `added`/`rescored.second`, `before`'s in the others).
GraphDiff DiffGraphs(const TemporalGraph& before, const TemporalGraph& after);

}  // namespace rdf
}  // namespace tecore

#endif  // TECORE_RDF_TEMPORAL_OPS_H_
