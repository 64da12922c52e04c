#ifndef TECORE_CORE_SESSION_H_
#define TECORE_CORE_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "core/compatibility.h"
#include "core/conflict.h"
#include "core/edits.h"
#include "core/resolver.h"
#include "kb/statistics.h"
#include "mine/miner.h"
#include "rdf/graph.h"
#include "rules/ast.h"
#include "util/status.h"

namespace tecore {
namespace core {

/// \brief The demo-UI workflow as an API.
///
/// The paper's Web UI lets a user (1) select a UTKG, (2) pick or edit
/// inference rules and constraints (with predicate auto-completion),
/// (3) compute the most probable conflict-free KG, and (4) browse result
/// statistics, consistent and conflicting statements. Session exposes the
/// same steps programmatically.
///
/// Since the service-API redesign, Session is a thin single-threaded shell
/// over api::Engine — the CLI, the server and this class all share one
/// audited concurrency contract. The mutable `graph()` accessor is gone
/// (callers could mutate the graph behind the incremental resolver without
/// a reset); mutate through `ApplyEdits`/`ApplyEditScript`/`SetGraph`
/// instead. `graph()` now returns the engine's immutable snapshot graph;
/// references obtained from it stay valid until the next mutating call.
class Session {
 public:
  Session() = default;

  // ------------------------------------------------------------- 1. data
  /// \brief Load a ".tq" file as the session's UTKG.
  Status LoadGraphFile(const std::string& path) {
    return Refresh(engine_.LoadGraphFile(path));
  }
  /// \brief Parse ".tq" text as the session's UTKG.
  Status LoadGraphText(std::string_view text) {
    return Refresh(engine_.LoadGraphText(text));
  }
  /// \brief Adopt an existing graph. (Session engines have no durable
  /// storage attached, so the engine's storage-only failure path is
  /// unreachable here.)
  void SetGraph(rdf::TemporalGraph graph) {
    snap_ = *engine_.SetGraph(std::move(graph));
  }

  bool HasGraph() const { return snap().has_graph(); }
  /// \brief The current snapshot graph (requires HasGraph()).
  const rdf::TemporalGraph& graph() const { return *snap().graph; }

  /// \brief Descriptive statistics of the loaded UTKG.
  Result<kb::GraphStatistics> GraphStats() const {
    return engine_.GraphStats();
  }

  /// \brief IRIs starting with `prefix` — the auto-completion data of the
  /// Constraints Editor (Fig. 5).
  std::vector<std::string> CompletePredicate(const std::string& prefix) const {
    return snap().CompletePredicate(prefix);
  }

  // ------------------------------------------------------------ 2. rules
  /// \brief Parse and append rules/constraints written in the rule
  /// language; returns how many were added.
  Result<size_t> AddRulesText(std::string_view text);
  /// \brief Append an already-parsed rule set.
  void AddRules(const rules::RuleSet& rules) {
    snap_ = *engine_.AddRules(rules);
  }
  /// \brief Drop all rules.
  void ClearRules() { snap_ = *engine_.ClearRules(); }

  const rules::RuleSet& rules() const { return *snap().rules; }

  /// \brief All expressivity problems for the chosen solver (empty = OK).
  std::vector<std::string> ValidateRules(rules::SolverKind solver) const;

  /// \brief Mine candidate constraints from the loaded UTKG (the paper's
  /// "automatic suggestion of constraints" demonstration goal).
  Result<mine::MiningReport> MineConstraints(
      const mine::MiningOptions& options = {}) const {
    return snap().MineConstraints(options);
  }

  /// \brief Predicate-level satisfiability pre-check of the current
  /// constraint set (Allen-algebra path consistency).
  CompatibilityReport AnalyzeRuleCompatibility() const {
    return AnalyzeConstraintCompatibility(rules());
  }

  // ---------------------------------------------------------- 3. compute
  /// \brief Detect conflicts under the current constraints.
  Result<ConflictReport> DetectConflicts(
      ground::GroundingOptions grounding = {});

  /// \brief Run the full resolution pipeline.
  Result<ResolveResult> Resolve(const ResolveOptions& options);

  /// \brief Apply KG edits and re-solve incrementally: only components the
  /// edits dirty are re-solved, cached MAP states are spliced for the rest
  /// (see IncrementalResolver for the determinism contract). The first
  /// call (or a call with changed options) pays one full pipeline run to
  /// seed the state. Loading a new graph or touching the rules resets it.
  /// Edit term ids must reference the engine's live dictionary; textual
  /// callers should use ApplyEditScript, which parses and applies
  /// atomically.
  Result<ResolveResult> ApplyEdits(const std::vector<GraphEdit>& edits,
                                   const ResolveOptions& options);

  /// \brief Parse and apply an edit script (`+`/`-` prefixed fact lines).
  Result<ResolveResult> ApplyEditScript(std::string_view script,
                                        const ResolveOptions& options);

  /// \brief The live incremental state, if any (diagnostics/tests).
  const IncrementalResolver* incremental() const {
    return engine_.incremental_for_tests();
  }
  /// \brief Drop the incremental state (next ApplyEdits re-seeds).
  void ResetIncremental() { engine_.ResetIncremental(); }

  // ----------------------------------------------------------- 4. browse
  /// \brief Render a conflict with its facts (for the results browser).
  std::string DescribeConflict(const Conflict& conflict) const {
    return snap().DescribeConflict(conflict);
  }

  /// \brief The underlying thread-safe engine (shared with the server).
  api::Engine& engine() { return engine_; }
  const api::Engine& engine() const { return engine_; }

 private:
  /// Adopt the snapshot a write published (or report why it didn't).
  Status Refresh(Result<std::shared_ptr<const api::Snapshot>> published) {
    if (!published.ok()) return published.status();
    snap_ = std::move(*published);
    return Status::OK();
  }
  /// The cached snapshot backing reference-returning accessors.
  const api::Snapshot& snap() const {
    auto current = engine_.snapshot();
    if (snap_.get() != current.get()) snap_ = std::move(current);
    return *snap_;
  }

  api::Engine engine_;
  mutable std::shared_ptr<const api::Snapshot> snap_;
};

}  // namespace core
}  // namespace tecore

#endif  // TECORE_CORE_SESSION_H_
