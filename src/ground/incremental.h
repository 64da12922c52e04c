#ifndef TECORE_GROUND_INCREMENTAL_H_
#define TECORE_GROUND_INCREMENTAL_H_

#include <cstdint>
#include <vector>

#include "ground/components.h"
#include "ground/grounder.h"
#include "rdf/graph.h"
#include "rules/ast.h"
#include "util/status.h"

namespace tecore {
namespace ground {

/// \brief Persistent state of the incrementally maintained ground network.
///
/// `network` is the canonical solve network of the last update (atoms in
/// canonical order, sorted rule clauses, then prior clauses) and doubles
/// as the join store for the next delta pass. `groundings` is the full
/// provenance — every rule grounding with its matched body atoms and
/// interned heads — which is what makes exact retraction possible: a
/// grounding survives an edit iff all of its body atoms survive.
struct IncrementalGroundState {
  GroundNetwork network;
  std::vector<StoredGrounding> groundings;
  /// Evidence atom of every graph fact (kInvalidAtomId for retracted
  /// ones), kept beside the network. Evidence atoms never move on the
  /// fast path, so there it only grows.
  std::vector<AtomId> fact_atoms;
  /// What the last update changed, when it took the fast path (empty when
  /// the graph was unchanged): the input ComponentPartition::ApplyInsertion
  /// folds in.
  NetworkInsertion inserted;
  /// Graph facts [0, num_facts_seen) are reflected in the state.
  rdf::FactId num_facts_seen = 0;
  /// Live-fact count at the last update; lets Update detect that no
  /// pre-existing fact was retracted (the pure-insertion fast path).
  size_t num_live_seen = 0;
  /// Graph edit epoch at the last update; an Update() against an
  /// unchanged epoch is a no-op.
  uint64_t graph_epoch = 0;
};

/// \brief Diagnostics of one incremental update.
struct IncrementalUpdateStats {
  int rounds = 0;
  size_t new_groundings = 0;
  size_t dead_groundings = 0;
  size_t dead_atoms = 0;
  /// True when the pure-insertion fast path applied (no retraction, no
  /// merge into existing atoms, no new derived atoms): the new atoms and
  /// clauses were placed into the canonical layout in O(delta) instead of
  /// a full rebuild (see IncrementalGroundState::inserted).
  bool fast_path = false;
  double delta_ground_ms = 0.0;
  double rebuild_ms = 0.0;
};

/// \brief Incremental counterpart of Grounder: maintains a ground network
/// across TemporalGraph edits.
///
/// Update() implements insert-then-sweep DRed:
///  1. *Delta-ground* the inserted facts (Grounder::GroundDelta): the
///     semi-naive frontier is seeded from the new evidence atoms, so every
///     grounding of the edited KB that involves a new atom is discovered —
///     and nothing else, because grounding is monotone and all other
///     groundings are already stored.
///  2. *Mark-sweep* liveness over the stored groundings: an atom is alive
///     iff one of its quad's supporting facts is live or it is the head of
///     an alive grounding (all body atoms alive), computed to fixpoint.
///     This replaces classic DRed's over-delete/re-derive dance — storing
///     every grounding means "alternative derivations" are just other
///     stored groundings, and running insertions first makes resurrection
///     (a retracted derivation replaced by a new one in the same batch)
///     fall out of the same sweep.
///  3. *Rebuild* the canonical solve network from the live facts and the
///     surviving groundings. By construction it is bit-identical to what
///     Grounder::Run would produce on the edited KB — the determinism
///     contract the incremental re-solve tests enforce.
///
/// Which path an edit takes:
///  * *Fast path* — an insert-only batch whose facts are all new quads and
///    derive no new atoms (e.g. a fact of a predicate no inference rule
///    reads). Steps 2–3 are skipped: the new evidence atoms move in front
///    of the derived block (only derived ids shift; with no derived atoms
///    nothing moves), their priors and the fresh rule clauses are inserted
///    at their canonical places, and `inserted` records the change so the
///    caller can update its component partition in O(delta).
///  * *Rebuild* — any retraction, an insert merging into an existing atom
///    (a duplicate quad), or an insert deriving a new atom.
class IncrementalGrounder {
 public:
  IncrementalGrounder(rdf::TemporalGraph* graph, const rules::RuleSet& rules,
                      GroundingOptions options = {});

  /// \brief Full grounding of the current graph into `state`.
  Result<GroundingResult> Initialize(IncrementalGroundState* state);

  /// \brief Fold all edits since the last update (appended facts and
  /// retractions) into `state`.
  Result<IncrementalUpdateStats> Update(IncrementalGroundState* state);

 private:
  rdf::TemporalGraph* graph_;
  const rules::RuleSet& rules_;
  GroundingOptions options_;
};

}  // namespace ground
}  // namespace tecore

#endif  // TECORE_GROUND_INCREMENTAL_H_
