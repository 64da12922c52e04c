#ifndef TECORE_CORE_RESOLVER_H_
#define TECORE_CORE_RESOLVER_H_

#include <string>
#include <vector>

#include "core/edits.h"
#include "ground/components.h"
#include "ground/grounder.h"
#include "ground/incremental.h"
#include "mln/solver.h"
#include "psl/solver.h"
#include "rdf/graph.h"
#include "rules/ast.h"
#include "rules/validator.h"
#include "util/status.h"

namespace tecore {
namespace core {

/// \brief Configuration of the resolution pipeline.
struct ResolveOptions {
  /// Which backend computes the MAP state.
  rules::SolverKind solver = rules::SolverKind::kMln;
  mln::MlnSolverOptions mln;
  psl::PslSolverOptions psl;
  ground::GroundingOptions grounding;
  /// Derived facts with a confidence score below this are dropped from the
  /// result and the repaired KG (the paper's threshold feature); 0 keeps
  /// everything.
  double derived_threshold = 0.0;
};

/// \brief Result-relevant equality of resolve configurations: true when a
/// result computed under `a` is reusable for a request under `b` (every
/// knob that can change a solver's output, or whether grounding succeeds,
/// is compared). Gates the engine's incremental-state reuse and its
/// snapshot solve cache.
bool SameResolveConfig(const ResolveOptions& a, const ResolveOptions& b);

/// \brief A fact derived by the inference rules during MAP.
struct DerivedFact {
  /// Term ids reference the dictionary of the graph the result was solved
  /// on: the graph handed to Resolver / IncrementalResolver, or any
  /// id-preserving Clone of it (such as an api::Snapshot's graph).
  /// Confidence is the score, clamped to [1e-6, 1].
  rdf::TemporalFact fact;
  /// Confidence score: the PSL soft truth value, or (for MLN) the sigmoid
  /// of the strongest supporting rule weight.
  double score = 0.0;
};

/// \brief Result of computing the most probable conflict-free temporal KG.
struct ResolveResult {
  /// Input facts kept / removed by the MAP state.
  std::vector<rdf::FactId> kept_facts;
  std::vector<rdf::FactId> removed_facts;
  /// Derived facts whose score passed the threshold.
  std::vector<DerivedFact> derived_facts;
  size_t derived_below_threshold = 0;

  // --- diagnostics ---
  std::string solver_name;
  bool feasible = false;
  bool optimal = false;
  double objective = 0.0;
  size_t ground_atoms = 0;
  size_t ground_clauses = 0;
  size_t num_components = 0;
  size_t largest_component = 0;
  double ground_time_ms = 0.0;
  double solve_time_ms = 0.0;
  double total_time_ms = 0.0;
  /// Components (with clauses) whose MAP outcome was reused — carried over
  /// from the previous edit or spliced by signature — vs. components a
  /// backend actually ran on. A from-scratch run solves them all.
  size_t spliced_components = 0;
  size_t dirty_components = 0;

  /// \brief Materialize the expanded, conflict-free output graph
  /// G_inferred: the kept input facts in id order, then the derived facts,
  /// under a freshly interned dictionary. `solved_on` is the graph the
  /// result was computed on, or an id-preserving Clone of it. O(graph).
  rdf::TemporalGraph ConsistentGraph(const rdf::TemporalGraph& solved_on) const;

  /// \brief Statistics panel like the demo UI's results screen (Fig. 8).
  std::string StatsPanel() const;
};

/// \brief TeCoRe's resolution pipeline: map(θ(G), F ∪ C).
///
/// Grounds the UTKG with the inference rules and constraints, runs MAP
/// inference on the chosen backend, and maps the MAP state back to facts:
/// evidence atoms assigned false are the noisy facts to remove; derived
/// atoms assigned true are the implicit knowledge. The result lists both
/// by the solved graph's ids; ResolveResult::ConsistentGraph materializes
/// the most probable, expanded, conflict-free temporal KG on request.
class Resolver {
 public:
  Resolver(rdf::TemporalGraph* graph, const rules::RuleSet& rules,
           ResolveOptions options = {});

  Result<ResolveResult> Run();

 private:
  rdf::TemporalGraph* graph_;
  const rules::RuleSet& rules_;
  ResolveOptions options_;
};

/// \brief The interactive counterpart of Resolver: keeps the ground
/// network, its component partition and every component's MAP outcome
/// alive across KG edits, so a single-fact change re-pays only the delta.
///
/// Initialize() runs the full pipeline once (recording grounding
/// provenance); each ApplyEdits() then (1) applies the edits to the graph,
/// (2) folds them into the maintained network via delta grounding plus a
/// DRed-style liveness sweep (ground::IncrementalGrounder), (3) updates the
/// carried ground::ComponentPartition and (4) re-solves only the components
/// that hold no outcome.
///
/// Which path an edit takes:
///  * An insert-only batch of new quads that derives no new atom (the
///    grounding fast path, e.g. a fact of a predicate no rule reads) costs
///    work in proportion to the edit when its new atoms join no existing
///    component: they form new components appended in canonical order,
///    only those are spliced by signature or solved, and every other
///    component is carried over untouched. A fast-path insert whose fresh
///    clause reaches an existing component re-partitions the network in
///    one flat pass instead, as the rebuild path does.
///  * Any other batch (a retraction, a duplicate quad, a new derived atom)
///    rebuilds the network and re-partitions it in one flat pass; every
///    component whose signature matches one of the previous partition
///    takes over that outcome, and only the rest are solved.
///
/// Determinism contract: every ApplyEdits() result — atom ids and clause
/// layout of the maintained network, kept/removed fact sets, derived
/// facts (their terms, intervals and scores), and the objective — is
/// bit-identical to a from-scratch Resolver::Run on the edited KB. The
/// network canonicalization (GroundNetwork::Canonicalize) makes that an
/// equality of bytes rather than an equivalence up to reordering, and the
/// solvers reduce component outcomes in canonical component order
/// (ascending lowest atom id), so carried and freshly solved outcomes sum
/// exactly as a from-scratch solve does.
///
/// The rule set must not change between calls; solver options are fixed at
/// construction (callers wanting different options start a new instance).
class IncrementalResolver {
 public:
  IncrementalResolver(rdf::TemporalGraph* graph, const rules::RuleSet& rules,
                      ResolveOptions options = {});

  /// \brief Full pipeline run; seeds the incremental state and the carried
  /// component outcomes.
  Result<ResolveResult> Initialize();

  /// \brief Apply `edits` to the graph and re-solve incrementally. Also
  /// folds in any out-of-band graph mutations made since the last call
  /// (the liveness sweep re-reads the graph).
  Result<ResolveResult> ApplyEdits(const std::vector<GraphEdit>& edits);

  bool initialized() const { return initialized_; }
  /// \brief The maintained canonical ground network (diagnostics/tests).
  const ground::GroundNetwork& network() const { return state_.network; }
  /// \brief Its carried component partition (diagnostics/tests).
  const ground::ComponentPartition& components() const { return components_; }
  const ResolveOptions& options() const { return options_; }
  /// \brief Grounding diagnostics of the last ApplyEdits call.
  const ground::IncrementalUpdateStats& last_update_stats() const {
    return last_update_stats_;
  }

 private:
  rdf::TemporalGraph* graph_;
  const rules::RuleSet& rules_;
  ResolveOptions options_;
  ground::IncrementalGroundState state_;
  ground::IncrementalUpdateStats last_update_stats_;
  /// Components of state_.network with their carried MAP outcomes (empty
  /// when the configured backend solves monolithically).
  ground::ComponentPartition components_;
  bool initialized_ = false;
};

}  // namespace core
}  // namespace tecore

#endif  // TECORE_CORE_RESOLVER_H_
