#include "ground/incremental.h"

#include <algorithm>
#include <utility>

#include "util/timer.h"

namespace tecore {
namespace ground {

namespace {
/// The clause a grounding emits: matched body atoms as negative literals,
/// interned heads as positive ones, weight/hardness from the rule — the
/// single reconstruction used by both rebuild paths.
GroundClause ClauseFromGrounding(const StoredGrounding& grounding,
                                 const rules::RuleSet& rules) {
  GroundClause clause;
  clause.rule_index = grounding.rule_index;
  const rules::Rule& rule =
      rules.rules[static_cast<size_t>(grounding.rule_index)];
  clause.hard = rule.hard;
  clause.weight = rule.weight;
  for (AtomId atom : grounding.matched) {
    clause.literals.push_back(NegativeLiteral(atom));
  }
  for (AtomId atom : grounding.heads) {
    clause.literals.push_back(PositiveLiteral(atom));
  }
  return clause;
}
}  // namespace

IncrementalGrounder::IncrementalGrounder(rdf::TemporalGraph* graph,
                                         const rules::RuleSet& rules,
                                         GroundingOptions options)
    : graph_(graph), rules_(rules), options_(options) {}

Result<GroundingResult> IncrementalGrounder::Initialize(
    IncrementalGroundState* state) {
  GroundingOptions options = options_;
  options.collect_groundings = true;
  Grounder grounder(graph_, rules_, options);
  TECORE_ASSIGN_OR_RETURN(result, grounder.Run());
  state->groundings = std::move(result.groundings);
  state->network = std::move(result.network);
  state->fact_atoms = std::move(result.fact_atoms);
  state->inserted = NetworkInsertion();
  state->num_facts_seen = static_cast<rdf::FactId>(graph_->NumFacts());
  state->num_live_seen = graph_->NumLiveFacts();
  state->graph_epoch = graph_->edit_epoch();
  // Hand callers the stats with an empty network/grounding payload (both
  // live in the state now).
  result.groundings.clear();
  return std::move(result);
}

Result<IncrementalUpdateStats> IncrementalGrounder::Update(
    IncrementalGroundState* state) {
  IncrementalUpdateStats stats;

  // Unchanged graph since the last update (the epoch counts every
  // Add/Retract): the state is current, skip everything.
  state->inserted = NetworkInsertion();
  if (graph_->edit_epoch() == state->graph_epoch) {
    stats.fast_path = true;
    return stats;
  }

  // ---- 1. Delta-ground the inserted facts against the maintained store.
  Grounder grounder(graph_, rules_, options_);
  TECORE_ASSIGN_OR_RETURN(
      delta, grounder.GroundDelta(&state->network, state->num_facts_seen));
  stats.rounds = delta.rounds;
  stats.new_groundings = delta.groundings.size();
  stats.delta_ground_ms = delta.ground_time_ms;

  // ---- Fast path: pure insertion. No pre-existing fact was retracted, no
  // inserted fact merged into an existing atom, and the delta derived no
  // new atoms — then nothing dies (grounding is monotone), every prior is
  // unchanged, and the canonical layout is restored by moving the appended
  // evidence block in front of the derived block and inserting the new
  // clauses in place: work in proportion to the edit (plus the derived
  // block, when there is one), bit-identical to a rebuild by the
  // monotone-shift argument in GroundNetwork::MoveAppendedEvidence.
  size_t live_new_facts = 0;
  for (rdf::FactId id = state->num_facts_seen; id < graph_->NumFacts();
       ++id) {
    if (graph_->is_live(id)) ++live_new_facts;
  }
  const bool no_retraction =
      state->num_live_seen + live_new_facts == graph_->NumLiveFacts();
  const bool no_new_derived =
      delta.seeded_end == static_cast<AtomId>(state->network.NumAtoms());
  if (no_retraction && !delta.merged_into_existing && no_new_derived) {
    Timer fast_timer;
    stats.fast_path = true;
    GroundNetwork& net = state->network;
    const AtomId appended_begin = delta.frontier_begin;
    const AtomId k = static_cast<AtomId>(net.NumAtoms()) - appended_begin;
    const AtomId at = net.MoveAppendedEvidence(appended_begin);
    auto remap = [at, appended_begin, k](AtomId id) {
      if (id < at) return id;
      return id < appended_begin ? id + k : at + (id - appended_begin);
    };
    if (at != appended_begin) {
      // Only the derived block moved; groundings referencing it follow.
      for (StoredGrounding& grounding : state->groundings) {
        for (AtomId& atom : grounding.matched) atom = remap(atom);
        for (AtomId& atom : grounding.heads) atom = remap(atom);
      }
    }
    std::vector<GroundClause> fresh_clauses;
    fresh_clauses.reserve(delta.groundings.size());
    for (StoredGrounding& grounding : delta.groundings) {
      for (AtomId& atom : grounding.matched) atom = remap(atom);
      for (AtomId& atom : grounding.heads) atom = remap(atom);
      if (grounding.emit_clause) {
        // Every delta clause references a fresh atom, so it cannot
        // duplicate a pre-existing clause — only a sibling, handled by
        // the sort+unique below.
        GroundClause clause = ClauseFromGrounding(grounding, rules_);
        if (GroundNetwork::NormalizeClause(&clause)) {
          fresh_clauses.push_back(std::move(clause));
        }
      }
      state->groundings.push_back(std::move(grounding));
    }
    std::sort(fresh_clauses.begin(), fresh_clauses.end(), CanonicalClauseLess);
    fresh_clauses.erase(std::unique(fresh_clauses.begin(), fresh_clauses.end(),
                                    ClauseContentEquals),
                        fresh_clauses.end());
    std::vector<GroundClause> priors;
    if (options_.add_evidence_priors) {
      for (AtomId id = at; id < at + k; ++id) {
        priors.push_back(net.PriorClause(id));
      }
    }
    net.InsertCanonicalClauses(std::move(fresh_clauses), std::move(priors),
                               &state->inserted.clauses);
    state->inserted.atoms_at = at;
    state->inserted.num_atoms = k;
    // Evidence atoms never move here, so earlier facts keep their atoms.
    state->fact_atoms.resize(graph_->NumFacts(), GroundNetwork::kInvalidAtomId);
    for (size_t i = 0; i < delta.fact_atoms.size(); ++i) {
      const AtomId atom = delta.fact_atoms[i];
      if (atom != GroundNetwork::kInvalidAtomId) {
        state->fact_atoms[state->num_facts_seen + i] = remap(atom);
      }
    }
    state->num_facts_seen = static_cast<rdf::FactId>(graph_->NumFacts());
    state->num_live_seen = graph_->NumLiveFacts();
    state->graph_epoch = graph_->edit_epoch();
    stats.rebuild_ms = fast_timer.ElapsedMillis();
    return stats;
  }

  state->groundings.insert(state->groundings.end(),
                           std::make_move_iterator(delta.groundings.begin()),
                           std::make_move_iterator(delta.groundings.end()));

  Timer rebuild_timer;
  const GroundNetwork& old_net = state->network;
  const size_t old_atoms = old_net.NumAtoms();

  // ---- 2. Liveness mark-sweep. Evidence aliveness comes from the graph;
  // derivation aliveness propagates through stored groundings to fixpoint.
  // Every live fact was seeded, at an earlier update or by this delta
  // pass; a fact live now was live then.
  std::vector<bool> alive(old_atoms, false);
  for (rdf::FactId id = 0; id < graph_->NumFacts(); ++id) {
    if (!graph_->is_live(id)) continue;
    const AtomId atom = id < state->num_facts_seen
                            ? state->fact_atoms[id]
                            : delta.fact_atoms[id - state->num_facts_seen];
    alive[atom] = true;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const StoredGrounding& grounding : state->groundings) {
      if (grounding.heads.empty()) continue;
      bool body_alive = true;
      for (AtomId atom : grounding.matched) {
        if (!alive[atom]) {
          body_alive = false;
          break;
        }
      }
      if (!body_alive) continue;
      for (AtomId atom : grounding.heads) {
        if (!alive[atom]) {
          alive[atom] = true;
          changed = true;
        }
      }
    }
  }

  // ---- 3. Rebuild the canonical solve network: live evidence in fact
  // order (exactly the seeding a from-scratch run performs), then the
  // surviving derived atoms in lexical order, then the surviving clauses.
  GroundNetwork fresh;
  std::vector<AtomId> fact_atoms(graph_->NumFacts(),
                                 GroundNetwork::kInvalidAtomId);
  for (rdf::FactId id = 0; id < graph_->NumFacts(); ++id) {
    if (!graph_->is_live(id)) continue;
    const rdf::TemporalFact& f = graph_->fact(id);
    fact_atoms[id] = fresh.GetOrAddAtom(
        f.subject, f.predicate, f.object, f.interval, /*is_evidence=*/true,
        f.confidence, id);
  }
  std::vector<AtomId> derived;
  std::vector<AtomId> remap(old_atoms, GroundNetwork::kInvalidAtomId);
  for (AtomId id = 0; id < old_atoms; ++id) {
    if (!alive[id]) continue;
    const GroundAtom& atom = old_net.atom(id);
    const AtomId evidence_id = fresh.FindAtom(atom.subject, atom.predicate,
                                              atom.object, atom.interval);
    if (evidence_id != GroundNetwork::kInvalidAtomId) {
      remap[id] = evidence_id;
    } else {
      derived.push_back(id);
    }
  }
  stats.dead_atoms =
      old_atoms - static_cast<size_t>(std::count(alive.begin(), alive.end(),
                                                 true));
  SortAtomIdsLexical(old_net, graph_->dict(), &derived);
  for (AtomId id : derived) {
    const GroundAtom& atom = old_net.atom(id);
    remap[id] = fresh.GetOrAddAtom(atom.subject, atom.predicate, atom.object,
                                   atom.interval, /*is_evidence=*/false, 0.0,
                                   rdf::kInvalidFactId);
  }

  std::vector<StoredGrounding> surviving;
  surviving.reserve(state->groundings.size());
  for (StoredGrounding& grounding : state->groundings) {
    bool body_alive = true;
    for (AtomId atom : grounding.matched) {
      if (!alive[atom]) {
        body_alive = false;
        break;
      }
    }
    if (!body_alive) continue;
    for (AtomId& atom : grounding.matched) atom = remap[atom];
    for (AtomId& atom : grounding.heads) atom = remap[atom];
    if (grounding.emit_clause) {
      fresh.AddClause(ClauseFromGrounding(grounding, rules_));
    }
    surviving.push_back(std::move(grounding));
  }
  stats.dead_groundings = state->groundings.size() - surviving.size();
  fresh.SortClausesCanonical();
  if (options_.add_evidence_priors) fresh.AddPriorClauses();

  state->network = std::move(fresh);
  state->groundings = std::move(surviving);
  state->fact_atoms = std::move(fact_atoms);
  state->num_facts_seen = static_cast<rdf::FactId>(graph_->NumFacts());
  state->num_live_seen = graph_->NumLiveFacts();
  state->graph_epoch = graph_->edit_epoch();
  stats.rebuild_ms = rebuild_timer.ElapsedMillis();
  return stats;
}

}  // namespace ground
}  // namespace tecore
