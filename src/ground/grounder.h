#ifndef TECORE_GROUND_GROUNDER_H_
#define TECORE_GROUND_GROUNDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ground/ground_network.h"
#include "rdf/graph.h"
#include "rules/ast.h"
#include "util/status.h"

namespace tecore {
namespace ground {

/// \brief Knobs of the grounding engine.
struct GroundingOptions {
  /// Fixpoint bound for derived-atom rounds (rules feeding rules).
  int max_rounds = 10;
  /// Safety guards against pathological rule sets.
  size_t max_atoms = 10'000'000;
  size_t max_clauses = 50'000'000;
  /// Emit the unit prior clauses (GroundNetwork::PriorClause): off only
  /// for conflict detection, which reads the rule clauses alone.
  bool add_evidence_priors = true;
  /// Semi-naive delta evaluation: each fixpoint round only enumerates
  /// bindings where at least one body atom comes from the frontier (atoms
  /// added in the previous round), so nothing is re-derived and no
  /// cross-round dedup set is needed. Disable only for the naive-vs-delta
  /// equivalence ablation; results are identical by construction.
  bool semi_naive = true;
  /// Record every grounding (rule index, matched body atoms, interned head
  /// atoms) in GroundingResult::groundings — the provenance the
  /// incremental pipeline replays for DRed-style retraction.
  bool collect_groundings = false;
};

/// \brief Outcome of grounding: the network plus bookkeeping.
struct GroundingResult {
  GroundNetwork network;
  int rounds = 0;
  /// Rule matches that produced a (possibly deduplicated) clause.
  size_t num_groundings = 0;
  /// Groundings skipped because an evaluable head was satisfied.
  size_t num_satisfied_heads = 0;
  double ground_time_ms = 0.0;
  /// Provenance of every grounding (only when
  /// GroundingOptions::collect_groundings; atom ids are post-canonical).
  std::vector<StoredGrounding> groundings;
  /// Evidence atom of every graph fact (kInvalidAtomId for retracted
  /// ones). Evidence atoms form the network's prefix and canonicalization
  /// never moves them, so this maps facts to MAP values in one flat pass.
  std::vector<AtomId> fact_atoms;
};

/// \brief Outcome of one delta-grounding pass (see Grounder::GroundDelta).
struct DeltaGroundingResult {
  /// Groundings discovered from the edited-fact frontier; ids reference
  /// the network that was passed in (with its newly appended atoms).
  std::vector<StoredGrounding> groundings;
  int rounds = 0;
  /// First atom id seeded by this delta (the frontier start).
  AtomId frontier_begin = 0;
  /// Atom count right after evidence seeding: ids [frontier_begin,
  /// seeded_end) are the new evidence atoms, [seeded_end, NumAtoms()) the
  /// new derived atoms.
  AtomId seeded_end = 0;
  /// True when an inserted fact's quad merged into a pre-existing atom
  /// (its prior/evidence status changed — disables the fast rebuild path).
  bool merged_into_existing = false;
  /// Evidence atom of each fact first_new_fact + i (kInvalidAtomId for
  /// facts already retracted), in the ids of the returned network.
  std::vector<AtomId> fact_atoms;
  double ground_time_ms = 0.0;
};

/// \brief The grounding engine.
///
/// Translates (UTKG, rules, constraints) into a ground network by
/// index-nested-loop joins over the atom store. Inference-rule heads create
/// *derived* atoms which can feed other rules' bodies, so grounding runs
/// semi-naive rounds to a fixpoint (bounded by `max_rounds`).
///
/// Constraints whose heads are evaluable (Allen / arithmetic / equality)
/// are resolved at grounding time: a grounding with a satisfied head is
/// dropped; an unsatisfied head yields the clause ¬b1 ∨ ... ∨ ¬bn — i.e. a
/// conflict among the matched facts (this is exactly how TeCoRe's conflict
/// detection works).
///
/// The grounder interns rule constants into the graph's dictionary, hence
/// takes the graph by mutable pointer; the fact list itself is not touched.
class Grounder {
 public:
  Grounder(rdf::TemporalGraph* graph, const rules::RuleSet& rules,
           GroundingOptions options = {});

  /// \brief Run grounding to fixpoint and return the network.
  Result<GroundingResult> Run();

  /// \brief Delta grounding for the incremental pipeline: `network`
  /// already holds the previous atoms (canonical layout); graph facts
  /// [first_new_fact, NumFacts) are the insertions. Seeds their evidence
  /// atoms and runs the semi-naive fixpoint with the frontier restricted
  /// to those (and transitively derived) atoms, so join work scales with
  /// the edit, not the KB. Every discovered grounding contains at least
  /// one new atom and is returned — clauses and priors are NOT added to
  /// `network`; the caller rebuilds the canonical solve network.
  /// Retractions are invisible here by design: grounding is monotone, so
  /// the caller's liveness mark-sweep prunes groundings that touch
  /// retracted facts afterwards.
  Result<DeltaGroundingResult> GroundDelta(GroundNetwork* network,
                                           rdf::FactId first_new_fact);

 private:
  rdf::TemporalGraph* graph_;
  const rules::RuleSet& rules_;
  GroundingOptions options_;
};

}  // namespace ground
}  // namespace tecore

#endif  // TECORE_GROUND_GROUNDER_H_
