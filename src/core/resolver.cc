#include "core/resolver.h"

#include <algorithm>

#include "core/translator.h"
#include "kb/weighting.h"
#include "obs/metrics.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace tecore {
namespace core {

namespace {

bool UsesComponents(const ResolveOptions& options) {
  return options.solver == rules::SolverKind::kMln
             ? options.mln.use_components
             : options.psl.use_components;
}

/// MAP inference + mapping the state back to facts: the assembly shared by
/// the from-scratch pipeline (Resolver::Run, which starts from an empty
/// partition) and the incremental one (IncrementalResolver, which carries
/// its partition across edits) — what keeps their outputs bit-identical
/// by construction. `fact_atoms` maps each graph fact to its evidence atom.
Result<ResolveResult> SolveAndAssemble(
    const rdf::TemporalGraph& graph, const ground::GroundNetwork& net,
    const std::vector<ground::AtomId>& fact_atoms,
    const ResolveOptions& options, ground::ComponentPartition* components) {
  static const auto stage_hist = obs::StageHistogram("solve");
  obs::ScopedTimer stage_timer(stage_hist);
  ResolveResult result;
  result.ground_atoms = net.NumAtoms();
  result.ground_clauses = net.NumClauses();

  // --- MAP inference.
  std::vector<bool> values;
  std::vector<double> soft_truth;  // PSL only
  if (options.solver == rules::SolverKind::kMln) {
    mln::MlnMapSolver solver(net, options.mln);
    TECORE_ASSIGN_OR_RETURN(solution, solver.Solve(components));
    values = std::move(solution.atom_values);
    result.solver_name = "mln/exact-maxsat";
    result.feasible = solution.feasible;
    result.optimal = solution.optimal;
    result.objective = solution.objective;
    result.num_components = solution.num_components;
    result.largest_component = solution.largest_component;
    result.solve_time_ms = solution.solve_time_ms;
    result.spliced_components = solution.reused_components;
    result.dirty_components = solution.solved_components;
  } else {
    psl::PslSolver solver(net, options.psl);
    TECORE_ASSIGN_OR_RETURN(solution, solver.Solve(components));
    values = std::move(solution.atom_values);
    soft_truth = std::move(solution.truth_values);
    result.solver_name = "npsl/admm";
    result.feasible = solution.feasible;
    result.optimal = false;  // convex relaxation + rounding
    result.objective = solution.objective;
    result.num_components = solution.num_components;
    result.largest_component = solution.largest_component;
    result.solve_time_ms = solution.solve_time_ms;
    result.spliced_components = solution.reused_components;
    result.dirty_components = solution.solved_components;
  }
  static const auto solved_total = obs::Registry::Default()->GetCounter(
      "tecore_solve_components_total", {{"outcome", "solved"}});
  static const auto reused_total = obs::Registry::Default()->GetCounter(
      "tecore_solve_components_total", {{"outcome", "reused"}});
  solved_total->Inc(result.dirty_components);
  reused_total->Inc(result.spliced_components);

  // --- Map atoms back to facts (retracted facts are out of the game).
  for (rdf::FactId id = 0; id < graph.NumFacts(); ++id) {
    if (!graph.is_live(id)) continue;
    const ground::AtomId atom = fact_atoms[id];
    if (atom != ground::GroundNetwork::kInvalidAtomId && values[atom]) {
      result.kept_facts.push_back(id);
    } else {
      result.removed_facts.push_back(id);
    }
  }

  // Derived atoms form the block after the evidence prefix.
  const ground::AtomId derived_begin = net.NumEvidenceAtoms();
  if (derived_begin == net.NumAtoms()) return result;

  // Strongest supporting rule weight per derived atom (MLN score).
  std::vector<double> support;
  if (soft_truth.empty()) {
    support.assign(net.NumAtoms(), 0.0);
    for (const ground::GroundClause& clause : net.clauses()) {
      if (clause.rule_index < 0) continue;
      const double w = clause.hard ? kb::kMaxLogOdds : clause.weight;
      for (int32_t lit : clause.literals) {
        if (ground::LiteralSign(lit)) {
          ground::AtomId atom = ground::LiteralAtom(lit);
          support[atom] = std::max(support[atom], w);
        }
      }
    }
  }

  for (ground::AtomId atom = derived_begin; atom < net.NumAtoms(); ++atom) {
    if (!values[atom]) continue;
    const ground::GroundAtom& ga = net.atom(atom);
    const double score = soft_truth.empty()
                             ? kb::WeightToConfidence(support[atom])
                             : soft_truth[atom];
    if (score < options.derived_threshold) {
      ++result.derived_below_threshold;
      continue;
    }
    DerivedFact derived;
    derived.fact = rdf::TemporalFact(ga.subject, ga.predicate, ga.object,
                                     ga.interval, std::clamp(score, 1e-6, 1.0));
    derived.score = score;
    result.derived_facts.push_back(std::move(derived));
  }
  return result;
}

}  // namespace

Resolver::Resolver(rdf::TemporalGraph* graph, const rules::RuleSet& rules,
                   ResolveOptions options)
    : graph_(graph), rules_(rules), options_(options) {}

Result<ResolveResult> Resolver::Run() {
  Timer total_timer;
  TECORE_ASSIGN_OR_RETURN(
      translation, Translator::Translate(graph_, rules_, options_.solver,
                                         options_.grounding));
  const ground::GroundingResult& grounding = translation.grounding;
  ground::ComponentPartition components;
  if (UsesComponents(options_)) components.Build(grounding.network);
  TECORE_ASSIGN_OR_RETURN(
      result, SolveAndAssemble(*graph_, grounding.network, grounding.fact_atoms,
                               options_, &components));
  result.ground_time_ms = grounding.ground_time_ms;
  result.total_time_ms = total_timer.ElapsedMillis();
  return std::move(result);
}

IncrementalResolver::IncrementalResolver(rdf::TemporalGraph* graph,
                                         const rules::RuleSet& rules,
                                         ResolveOptions options)
    : graph_(graph), rules_(rules), options_(options) {}

Result<ResolveResult> IncrementalResolver::Initialize() {
  Timer total_timer;
  TECORE_RETURN_NOT_OK(rules::ValidateRuleSet(rules_, options_.solver));
  ground::IncrementalGrounder grounder(graph_, rules_, options_.grounding);
  TECORE_ASSIGN_OR_RETURN(stats, grounder.Initialize(&state_));
  components_ = ground::ComponentPartition();
  if (UsesComponents(options_)) components_.Build(state_.network);
  TECORE_ASSIGN_OR_RETURN(
      result, SolveAndAssemble(*graph_, state_.network, state_.fact_atoms,
                               options_, &components_));
  initialized_ = true;
  result.ground_time_ms = stats.ground_time_ms;
  result.total_time_ms = total_timer.ElapsedMillis();
  return std::move(result);
}

Result<ResolveResult> IncrementalResolver::ApplyEdits(
    const std::vector<GraphEdit>& edits) {
  if (!initialized_) {
    return Status::InvalidArgument(
        "IncrementalResolver::ApplyEdits before Initialize()");
  }
  Timer total_timer;
  const bool uses_components = UsesComponents(options_);
  // Sign the current components (once; both update paths keep the index)
  // while the network they describe is still at hand.
  if (uses_components) components_.IndexSignatures(state_.network);
  TECORE_RETURN_NOT_OK(ApplyGraphEdits(edits, graph_).status());
  ground::IncrementalGrounder grounder(graph_, rules_, options_.grounding);
  TECORE_ASSIGN_OR_RETURN(stats, grounder.Update(&state_));
  last_update_stats_ = stats;
  static const auto fast_total = obs::Registry::Default()->GetCounter(
      "tecore_incremental_updates_total", {{"path", "fast"}});
  static const auto rebuild_total = obs::Registry::Default()->GetCounter(
      "tecore_incremental_updates_total", {{"path", "rebuild"}});
  (stats.fast_path ? fast_total : rebuild_total)->Inc();
  if (uses_components) {
    if (stats.fast_path) {
      components_.ApplyInsertion(state_.network, state_.inserted);
    } else {
      components_.Build(state_.network);
    }
  }
  TECORE_ASSIGN_OR_RETURN(
      result, SolveAndAssemble(*graph_, state_.network, state_.fact_atoms,
                               options_, &components_));
  result.ground_time_ms = stats.delta_ground_ms + stats.rebuild_ms;
  result.total_time_ms = total_timer.ElapsedMillis();
  return std::move(result);
}

bool SameResolveConfig(const ResolveOptions& a, const ResolveOptions& b) {
  const bool mln_same =
      a.mln.exact_var_limit == b.mln.exact_var_limit &&
      a.mln.use_components == b.mln.use_components &&
      a.mln.exact.max_nodes == b.mln.exact.max_nodes &&
      a.mln.exact.time_limit_ms == b.mln.exact.time_limit_ms;
  // The limits decide whether grounding succeeds, so an engine must not
  // reuse incremental state grounded under different ones.
  const bool grounding_same =
      a.grounding.max_rounds == b.grounding.max_rounds &&
      a.grounding.max_atoms == b.grounding.max_atoms &&
      a.grounding.max_clauses == b.grounding.max_clauses &&
      a.grounding.add_evidence_priors == b.grounding.add_evidence_priors &&
      a.grounding.semi_naive == b.grounding.semi_naive;
  return a.solver == b.solver && a.derived_threshold == b.derived_threshold &&
         mln_same && a.psl.use_components == b.psl.use_components &&
         grounding_same;
}

rdf::TemporalGraph ResolveResult::ConsistentGraph(
    const rdf::TemporalGraph& solved_on) const {
  std::vector<bool> keep(solved_on.NumFacts(), false);
  for (rdf::FactId id : kept_facts) keep[id] = true;
  rdf::TemporalGraph out = solved_on.Filter(keep);
  // Derived facts follow in order, re-interned into the output dictionary.
  for (const DerivedFact& derived : derived_facts) {
    const rdf::TemporalFact& f = derived.fact;
    (void)out.Add(rdf::TemporalFact(
        out.dict().Intern(solved_on.dict().Lookup(f.subject)),
        out.dict().Intern(solved_on.dict().Lookup(f.predicate)),
        out.dict().Intern(solved_on.dict().Lookup(f.object)), f.interval,
        f.confidence));
  }
  return out;
}

std::string ResolveResult::StatsPanel() const {
  std::string out;
  out += "=== TeCoRe resolution (" + solver_name + ") ===\n";
  const size_t input = kept_facts.size() + removed_facts.size();
  out += StringPrintf("input facts          : %s\n",
                      FormatWithCommas(static_cast<int64_t>(input)).c_str());
  out += StringPrintf("kept facts           : %s\n",
                      FormatWithCommas(
                          static_cast<int64_t>(kept_facts.size())).c_str());
  out += StringPrintf("removed (noisy)      : %s\n",
                      FormatWithCommas(
                          static_cast<int64_t>(removed_facts.size())).c_str());
  out += StringPrintf("derived facts        : %s\n",
                      FormatWithCommas(
                          static_cast<int64_t>(derived_facts.size())).c_str());
  if (derived_below_threshold > 0) {
    out += StringPrintf("below threshold      : %s\n",
                        FormatWithCommas(static_cast<int64_t>(
                            derived_below_threshold)).c_str());
  }
  out += StringPrintf("ground atoms/clauses : %s / %s\n",
                      FormatWithCommas(
                          static_cast<int64_t>(ground_atoms)).c_str(),
                      FormatWithCommas(
                          static_cast<int64_t>(ground_clauses)).c_str());
  if (num_components > 0) {
    out += StringPrintf("components (largest) : %s (%zu)\n",
                        FormatWithCommas(static_cast<int64_t>(
                            num_components)).c_str(),
                        largest_component);
  }
  if (spliced_components + dirty_components > 0) {
    out += StringPrintf("spliced / re-solved  : %s / %s\n",
                        FormatWithCommas(static_cast<int64_t>(
                            spliced_components)).c_str(),
                        FormatWithCommas(static_cast<int64_t>(
                            dirty_components)).c_str());
  }
  out += StringPrintf("objective            : %.3f%s\n", objective,
                      optimal ? " (optimal)" : "");
  out += StringPrintf("feasible             : %s\n",
                      feasible ? "yes" : "NO");
  out += StringPrintf("grounding / solving  : %.1f ms / %.1f ms\n",
                      ground_time_ms, solve_time_ms);
  return out;
}

}  // namespace core
}  // namespace tecore
