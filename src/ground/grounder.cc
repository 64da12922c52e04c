#include "ground/grounder.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "logic/eval.h"
#include "obs/metrics.h"
#include "rules/validator.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace tecore {
namespace ground {

namespace {

using logic::Binding;
using logic::EntityArg;
using logic::IntervalExpr;
using logic::QuadAtom;
using logic::VarId;

/// A body/head entity position with rule constants pre-interned.
struct CompiledArg {
  bool is_var = false;
  VarId var = -1;
  rdf::TermId term = rdf::kInvalidTermId;
};

struct CompiledQuad {
  CompiledArg subject, predicate, object;
  const IntervalExpr* time = nullptr;
  /// True when `time` is a plain variable (binds on match).
  bool time_is_var = false;
  VarId time_var = -1;
  /// Variables a non-var time expression needs before it can be evaluated
  /// (empty for plain variables and constants).
  std::vector<VarId> time_expr_vars;
};

struct CompiledRule {
  const rules::Rule* rule = nullptr;
  int32_t rule_index = -1;
  std::vector<CompiledQuad> body;
  std::vector<CompiledQuad> head_quads;
  /// cond_vars[i] = variables condition i needs; a condition is evaluated
  /// as soon as all of them are bound.
  std::vector<std::vector<VarId>> cond_vars;
};

/// Collects all variables of a condition atom.
void ConditionVars(const logic::ConditionAtom& cond, std::vector<VarId>* out) {
  if (const auto* allen = std::get_if<logic::AllenAtom>(&cond)) {
    allen->a.CollectVars(out);
    allen->b.CollectVars(out);
  } else if (const auto* numeric = std::get_if<logic::NumericAtom>(&cond)) {
    numeric->lhs.CollectVars(out);
    numeric->rhs.CollectVars(out);
  } else {
    const auto& cmp = std::get<logic::TermCompareAtom>(cond);
    if (cmp.lhs.is_variable()) out->push_back(cmp.lhs.var());
    if (cmp.rhs.is_variable()) out->push_back(cmp.rhs.var());
  }
}

/// A bounded, zero-copy view over the candidate atoms of one body pattern.
///
/// Either a slice [begin, end) of one of the network's secondary index
/// vectors, or (variable-predicate scans) the raw id range [lo, hi). Index
/// vectors are append-only and sorted by atom id, and the network's hash
/// maps never invalidate element references, so the view stays valid while
/// Emit() appends atoms mid-iteration — entries past `end` are simply not
/// visited this pass (they belong to the next semi-naive delta).
struct CandidateView {
  const std::vector<AtomId>* list = nullptr;  // null => identity over [lo,hi)
  size_t begin = 0, end = 0;
  AtomId lo = 0, hi = 0;

  size_t size() const {
    return list != nullptr ? end - begin : static_cast<size_t>(hi - lo);
  }
  AtomId at(size_t i) const {
    return list != nullptr ? (*list)[begin + i] : lo + static_cast<AtomId>(i);
  }
};

/// Delta-restriction of one semi-naive pass: body atom `delta_pos` matches
/// only atoms in [old_end, all_end); positions before it only [0, old_end);
/// positions after it [0, all_end). Every grounding therefore contains at
/// least one frontier atom and is derived exactly once across all passes
/// and rounds.
struct PassContext {
  bool semi_naive = false;
  size_t delta_pos = 0;
  AtomId old_end = 0;
  AtomId all_end = 0;

  void RangeFor(size_t body_index, AtomId* lo, AtomId* hi) const {
    if (!semi_naive) {
      *lo = 0;
      *hi = UINT32_MAX;  // clipped to NumAtoms() at view-build time
      return;
    }
    *lo = body_index == delta_pos ? old_end : 0;
    *hi = body_index < delta_pos ? old_end : all_end;
  }
};

/// A head atom resolved under a binding but not yet interned into the
/// network (EvalHead resolves, ApplyGrounding interns).
struct ResolvedQuad {
  rdf::TermId subject, predicate, object;
  temporal::Interval interval{0, 0};
};

/// The actual matcher; one instance per Run() call.
class GroundingEngine {
 public:
  GroundingEngine(rdf::TemporalGraph* graph, const rules::RuleSet& rules,
                  const GroundingOptions& options, GroundingResult* result)
      : graph_(graph), rules_(rules), options_(options), result_(result) {}

  Status Execute() {
    Timer timer;
    static const auto stage_hist = obs::StageHistogram("ground");
    obs::ScopedTimer stage_timer(stage_hist);
    net_ = &result_->network;
    if (options_.collect_groundings) collected_ = &result_->groundings;
    TECORE_RETURN_NOT_OK(Compile());
    SeedEvidence();
    TECORE_RETURN_NOT_OK(
        RunFixpoint(/*initial_delta_begin=*/0, /*fire_body_less=*/true));
    std::vector<AtomId> remap = net_->Canonicalize(graph_->dict());
    if (collected_ != nullptr) {
      for (StoredGrounding& grounding : *collected_) {
        for (AtomId& atom : grounding.matched) atom = remap[atom];
        for (AtomId& atom : grounding.heads) atom = remap[atom];
      }
    }
    if (options_.add_evidence_priors) net_->AddPriorClauses();
    result_->ground_time_ms = timer.ElapsedMillis();
    return Status::OK();
  }

  /// Delta mode: seed evidence atoms for graph facts [first_new_fact, end)
  /// and run the semi-naive fixpoint with the frontier starting at the
  /// pre-seed atom count. Groundings are collected, never applied: the
  /// caller owns clause reconstruction.
  Status ExecuteDelta(GroundNetwork* network, rdf::FactId first_new_fact,
                      DeltaGroundingResult* delta) {
    Timer timer;
    static const auto stage_hist = obs::StageHistogram("ground");
    obs::ScopedTimer stage_timer(stage_hist);
    net_ = network;
    collected_ = &delta->groundings;
    add_clauses_ = false;
    TECORE_RETURN_NOT_OK(Compile());
    delta->frontier_begin = static_cast<AtomId>(net_->NumAtoms());
    delta->fact_atoms.assign(graph_->NumFacts() - first_new_fact,
                             GroundNetwork::kInvalidAtomId);
    for (rdf::FactId id = first_new_fact; id < graph_->NumFacts(); ++id) {
      if (!graph_->is_live(id)) continue;
      const rdf::TemporalFact& f = graph_->fact(id);
      const AtomId atom = net_->GetOrAddAtom(
          f.subject, f.predicate, f.object, f.interval,
          /*is_evidence=*/true, f.confidence, id);
      if (atom < delta->frontier_begin) delta->merged_into_existing = true;
      delta->fact_atoms[id - first_new_fact] = atom;
    }
    delta->seeded_end = static_cast<AtomId>(net_->NumAtoms());
    TECORE_RETURN_NOT_OK(RunFixpoint(delta->frontier_begin,
                                     /*fire_body_less=*/false));
    delta->rounds = result_->rounds;
    delta->ground_time_ms = timer.ElapsedMillis();
    return Status::OK();
  }

 private:
  /// Fixpoint rounds over `net_`. Semi-naive: each round grounds only
  /// bindings that touch the frontier (atoms at or past `delta_begin`), so
  /// a round with an empty frontier can produce nothing and the loop stops
  /// as soon as a round adds no atoms. Naive: re-ground everything until
  /// atom and clause counts stabilize (kept for the equivalence ablation).
  /// `fire_body_less` lets round 0 fire body-less rules (full runs only —
  /// an incremental delta must not re-fire them).
  Status RunFixpoint(AtomId initial_delta_begin, bool fire_body_less) {
    AtomId delta_begin = initial_delta_begin;
    size_t prev_atoms = 0, prev_clauses = 0;
    for (int round = 0; round < options_.max_rounds; ++round) {
      result_->rounds = round + 1;
      const bool body_less_round = round == 0 && fire_body_less;
      const AtomId round_limit = static_cast<AtomId>(net_->NumAtoms());
      for (const CompiledRule& cr : compiled_) {
        TECORE_RETURN_NOT_OK(
            GroundRule(cr, delta_begin, round_limit, body_less_round));
      }
      size_t atoms = net_->NumAtoms();
      size_t clauses = net_->NumClauses();
      if (atoms > options_.max_atoms) {
        return Status::OutOfRange(
            StringPrintf("grounding exceeded max_atoms (%zu)", atoms));
      }
      if (clauses > options_.max_clauses) {
        return Status::OutOfRange(
            StringPrintf("grounding exceeded max_clauses (%zu)", clauses));
      }
      if (options_.semi_naive) {
        if (atoms == round_limit) break;  // empty next frontier: fixpoint
        delta_begin = round_limit;
      } else {
        if (atoms == prev_atoms && clauses == prev_clauses) break;
        prev_atoms = atoms;
        prev_clauses = clauses;
      }
    }
    return Status::OK();
  }
  Status Compile() {
    for (size_t ri = 0; ri < rules_.rules.size(); ++ri) {
      const rules::Rule& rule = rules_.rules[ri];
      TECORE_RETURN_NOT_OK(rules::ValidateRule(rule));
      if (rule.body.size() > 64 || rule.conditions.size() > 64) {
        return Status::InvalidArgument(
            "rule body/conditions exceed 64 atoms (unsupported)");
      }
      CompiledRule cr;
      cr.rule = &rule;
      cr.rule_index = static_cast<int32_t>(ri);
      for (const QuadAtom& atom : rule.body) {
        cr.body.push_back(CompileQuad(atom));
      }
      for (const QuadAtom& atom : rule.head.quads) {
        cr.head_quads.push_back(CompileQuad(atom));
      }
      cr.cond_vars.resize(rule.conditions.size());
      for (size_t ci = 0; ci < rule.conditions.size(); ++ci) {
        ConditionVars(rule.conditions[ci], &cr.cond_vars[ci]);
        std::sort(cr.cond_vars[ci].begin(), cr.cond_vars[ci].end());
        cr.cond_vars[ci].erase(
            std::unique(cr.cond_vars[ci].begin(), cr.cond_vars[ci].end()),
            cr.cond_vars[ci].end());
      }
      compiled_.push_back(std::move(cr));
    }
    return Status::OK();
  }

  CompiledQuad CompileQuad(const QuadAtom& atom) {
    CompiledQuad cq;
    auto compile_arg = [this](const EntityArg& arg) {
      CompiledArg out;
      if (arg.is_variable()) {
        out.is_var = true;
        out.var = arg.var();
      } else {
        out.term = graph_->dict().Intern(arg.constant());
      }
      return out;
    };
    cq.subject = compile_arg(atom.subject);
    cq.predicate = compile_arg(atom.predicate);
    cq.object = compile_arg(atom.object);
    cq.time = &atom.time;
    cq.time_is_var = atom.time.kind() == IntervalExpr::Kind::kVar;
    if (cq.time_is_var) {
      cq.time_var = atom.time.var();
    } else {
      atom.time.CollectVars(&cq.time_expr_vars);
    }
    return cq;
  }

  void SeedEvidence() {
    result_->fact_atoms.assign(graph_->NumFacts(),
                               GroundNetwork::kInvalidAtomId);
    for (rdf::FactId id = 0; id < graph_->NumFacts(); ++id) {
      if (!graph_->is_live(id)) continue;
      const rdf::TemporalFact& f = graph_->fact(id);
      result_->fact_atoms[id] = net_->GetOrAddAtom(
          f.subject, f.predicate, f.object, f.interval, /*is_evidence=*/true,
          f.confidence, id);
    }
  }

  Status GroundRule(const CompiledRule& cr, AtomId delta_begin,
                    AtomId round_limit, bool first_round) {
    if (cr.body.empty()) {
      // Degenerate body-less rule: fires exactly once, in the first round.
      if (first_round) return RunPass(cr, PassContext{}, /*body_less=*/true);
      return Status::OK();
    }
    if (!options_.semi_naive) {
      PassContext ctx;
      ctx.semi_naive = false;
      return RunPass(cr, ctx, /*body_less=*/false);
    }
    // One pass per body position taking the frontier role. Round 0 has
    // old_end == 0, so only the d == 0 pass can match (later passes need a
    // non-empty "old" region) — the full evidence join runs exactly once.
    for (size_t d = 0; d < cr.body.size(); ++d) {
      if (delta_begin >= round_limit) break;     // empty frontier
      if (d > 0 && delta_begin == 0) break;      // empty old region
      PassContext ctx;
      ctx.semi_naive = true;
      ctx.delta_pos = d;
      ctx.old_end = delta_begin;
      ctx.all_end = round_limit;
      TECORE_RETURN_NOT_OK(RunPass(cr, ctx, /*body_less=*/false));
    }
    return Status::OK();
  }

  /// One matcher pass: fresh binding state, then the recursive body join.
  Status RunPass(const CompiledRule& cr, const PassContext& ctx,
                 bool body_less) {
    Binding binding(cr.rule->vars);
    std::vector<AtomId> matched(cr.body.size(), 0);
    std::vector<bool> cond_done(cr.rule->conditions.size(), false);
    if (body_less) return FinishMatch(cr, &binding, &matched, &cond_done);
    return MatchBody(cr, ctx, /*depth=*/0, /*matched_mask=*/0, &binding,
                     &matched, &cond_done);
  }

  /// Resolve a compiled entity arg under the current binding.
  /// Returns kInvalidTermId when the position is an unbound variable.
  static rdf::TermId ResolveArg(const CompiledArg& arg,
                                const Binding& binding) {
    if (!arg.is_var) return arg.term;
    return binding.HasEntity(arg.var) ? binding.entity(arg.var)
                                      : rdf::kInvalidTermId;
  }

  static bool VarBound(const Binding& binding, VarId v) {
    return binding.HasEntity(v) || binding.HasInterval(v);
  }

  /// True when the pattern's time position can be evaluated/matched under
  /// the current binding (plain variables always can: they bind or compare).
  static bool TimeReady(const CompiledQuad& pattern, const Binding& binding) {
    if (pattern.time_is_var) return true;
    for (VarId v : pattern.time_expr_vars) {
      if (!binding.HasInterval(v)) return false;
    }
    return true;
  }

  /// Build the candidate view for `pattern` restricted to atom ids
  /// [lo, hi), using the most selective available secondary index.
  CandidateView MakeView(const CompiledQuad& pattern, const Binding& binding,
                         AtomId lo, AtomId hi) const {
    const GroundNetwork& net = *net_;
    const rdf::TermId p = ResolveArg(pattern.predicate, binding);
    const rdf::TermId s = ResolveArg(pattern.subject, binding);
    const rdf::TermId o = ResolveArg(pattern.object, binding);

    const std::vector<AtomId>* list = nullptr;
    if (p != rdf::kInvalidTermId && s != rdf::kInvalidTermId) {
      list = &net.AtomsWithPredSubject(p, s);
    } else if (p != rdf::kInvalidTermId && o != rdf::kInvalidTermId) {
      list = &net.AtomsWithPredObject(p, o);
    } else if (p != rdf::kInvalidTermId) {
      list = &net.AtomsWithPredicate(p);
    } else {
      // Variable predicate: iterate raw atom ids, no materialization.
      CandidateView view;
      view.lo = lo;
      view.hi = std::max(lo, std::min<AtomId>(
                                 hi, static_cast<AtomId>(net.NumAtoms())));
      return view;
    }
    CandidateView view;
    view.list = list;
    // Index lists are sorted (atoms are appended with increasing ids), so
    // the [lo, hi) restriction is a contiguous slice.
    view.begin = static_cast<size_t>(
        std::lower_bound(list->begin(), list->end(), lo) - list->begin());
    view.end = static_cast<size_t>(
        std::lower_bound(list->begin(), list->end(), hi) - list->begin());
    return view;
  }

  /// Pick the next body atom to match: the unmatched, evaluable pattern
  /// with the fewest candidates under the current binding (cheap dynamic
  /// join ordering — the frontier-restricted atom usually wins). Falls
  /// back to the lowest unmatched index when nothing is evaluable, which
  /// reproduces the strict left-to-right semantics for rules the
  /// validator's ordering guarantee does not cover.
  size_t PickNext(const CompiledRule& cr, const PassContext& ctx,
                  uint64_t matched_mask, const Binding& binding,
                  CandidateView* view) const {
    size_t best = SIZE_MAX;
    size_t best_count = 0;
    CandidateView best_view;
    for (size_t i = 0; i < cr.body.size(); ++i) {
      if (matched_mask & (1ULL << i)) continue;
      if (!TimeReady(cr.body[i], binding)) continue;
      AtomId lo, hi;
      ctx.RangeFor(i, &lo, &hi);
      CandidateView candidate = MakeView(cr.body[i], binding, lo, hi);
      if (best == SIZE_MAX || candidate.size() < best_count) {
        best = i;
        best_count = candidate.size();
        best_view = candidate;
      }
    }
    if (best == SIZE_MAX) {
      // No pattern is evaluable yet: take the first unmatched one.
      for (size_t i = 0; i < cr.body.size(); ++i) {
        if (matched_mask & (1ULL << i)) continue;
        AtomId lo, hi;
        ctx.RangeFor(i, &lo, &hi);
        *view = MakeView(cr.body[i], binding, lo, hi);
        return i;
      }
    }
    *view = best_view;
    return best;
  }

  Status MatchBody(const CompiledRule& cr, const PassContext& ctx,
                   size_t depth, uint64_t matched_mask, Binding* binding,
                   std::vector<AtomId>* matched,
                   std::vector<bool>* cond_done) {
    if (depth == cr.body.size()) {
      return FinishMatch(cr, binding, matched, cond_done);
    }
    CandidateView view;
    const size_t index = PickNext(cr, ctx, matched_mask, *binding, &view);
    const CompiledQuad& pattern = cr.body[index];
    const uint64_t next_mask = matched_mask | (1ULL << index);

    for (size_t vi = 0; vi < view.size(); ++vi) {
      const AtomId atom_id = view.at(vi);
      const GroundAtom& atom = net_->atom(atom_id);
      // --- match entity positions, recording fresh bindings for undo.
      bool bound_s = false, bound_p = false, bound_o = false,
           bound_t = false;
      if (!TryBindEntity(pattern.subject, atom.subject, binding, &bound_s) ||
          !TryBindEntity(pattern.predicate, atom.predicate, binding,
                         &bound_p) ||
          !TryBindEntity(pattern.object, atom.object, binding, &bound_o) ||
          !TryBindTime(pattern, atom.interval, binding, &bound_t)) {
        UndoBindings(pattern, bound_s, bound_p, bound_o, bound_t, binding);
        continue;
      }
      (*matched)[index] = atom_id;
      // --- early side-condition evaluation: fire every condition whose
      // variables just became fully bound (strongly prunes the join).
      bool conditions_hold = true;
      uint64_t newly_done = 0;
      for (size_t ci = 0; ci < cr.cond_vars.size(); ++ci) {
        if ((*cond_done)[ci]) continue;
        bool ready = true;
        for (VarId v : cr.cond_vars[ci]) {
          if (!VarBound(*binding, v)) {
            ready = false;
            break;
          }
        }
        if (!ready) continue;
        (*cond_done)[ci] = true;
        newly_done |= 1ULL << ci;  // bounded: conditions fit a rule body
        if (!EvalConditionAsFilter(cr, ci, *binding)) {
          conditions_hold = false;
          break;
        }
      }
      if (conditions_hold) {
        Status st = MatchBody(cr, ctx, depth + 1, next_mask, binding, matched,
                              cond_done);
        if (!st.ok()) return st;
      }
      for (size_t ci = 0; ci < cr.cond_vars.size(); ++ci) {
        if (newly_done & (1ULL << ci)) (*cond_done)[ci] = false;
      }
      UndoBindings(pattern, bound_s, bound_p, bound_o, bound_t, binding);
    }
    return Status::OK();
  }

  /// Evaluate condition `ci` as a pure filter: type errors (e.g.
  /// arithmetic over an IRI) mean "no match" rather than a hard failure.
  bool EvalConditionAsFilter(const CompiledRule& cr, size_t ci,
                             const Binding& binding) {
    auto held = logic::EvalCondition(cr.rule->conditions[ci], binding,
                                     &graph_->dict());
    return held.ok() && *held;
  }

  /// Full body matched: evaluate any remaining conditions (those of a
  /// body-less rule), then emit the grounding.
  Status FinishMatch(const CompiledRule& cr, Binding* binding,
                     std::vector<AtomId>* matched,
                     std::vector<bool>* cond_done) {
    for (size_t ci = 0; ci < cr.cond_vars.size(); ++ci) {
      if ((*cond_done)[ci]) continue;
      if (!EvalConditionAsFilter(cr, ci, *binding)) return Status::OK();
    }
    return Emit(cr, *binding, *matched);
  }

  static bool TryBindEntity(const CompiledArg& arg, rdf::TermId value,
                            Binding* binding, bool* fresh) {
    *fresh = false;
    if (!arg.is_var) return arg.term == value;
    if (binding->HasEntity(arg.var)) return binding->entity(arg.var) == value;
    binding->BindEntity(arg.var, value);
    *fresh = true;
    return true;
  }

  bool TryBindTime(const CompiledQuad& pattern,
                   const temporal::Interval& value, Binding* binding,
                   bool* fresh) {
    *fresh = false;
    if (pattern.time_is_var) {
      if (binding->HasInterval(pattern.time_var)) {
        return binding->interval(pattern.time_var) == value;
      }
      binding->BindInterval(pattern.time_var, value);
      *fresh = true;
      return true;
    }
    // Expression or constant: evaluate and compare.
    auto expected = logic::EvalInterval(*pattern.time, *binding);
    return expected.has_value() && *expected == value;
  }

  static void UndoBindings(const CompiledQuad& pattern, bool bound_s,
                           bool bound_p, bool bound_o, bool bound_t,
                           Binding* binding) {
    if (bound_s) binding->UnbindEntity(pattern.subject.var);
    if (bound_p) binding->UnbindEntity(pattern.predicate.var);
    if (bound_o) binding->UnbindEntity(pattern.object.var);
    if (bound_t) binding->UnbindInterval(pattern.time_var);
  }

  /// Head evaluation: resolve the rule head under `binding` without
  /// touching the network. On return, `*satisfied` is true when an
  /// evaluable head held (grounding discharged, no clause); otherwise
  /// `heads` holds the resolved quads to intern, and `*emit_clause` is
  /// false when a head quad had an empty time intersection — the clause is
  /// dropped, but head atoms resolved before it must still be interned
  /// (the historical emission order interns them as it goes).
  Status EvalHead(const CompiledRule& cr, const Binding& binding,
                  bool* satisfied, std::vector<ResolvedQuad>* heads,
                  bool* emit_clause) {
    *satisfied = false;
    *emit_clause = true;
    heads->clear();
    const rules::Rule& rule = *cr.rule;
    switch (rule.head.kind) {
      case rules::HeadKind::kFalse:
        break;
      case rules::HeadKind::kCondition: {
        auto held =
            logic::EvalCondition(*rule.head.condition, binding, &graph_->dict());
        // Evaluation type error: treat the head as unsatisfied.
        if (held.ok() && *held) *satisfied = true;
        break;
      }
      case rules::HeadKind::kQuads: {
        for (const CompiledQuad& head : cr.head_quads) {
          ResolvedQuad quad;
          quad.subject = ResolveArg(head.subject, binding);
          quad.predicate = ResolveArg(head.predicate, binding);
          quad.object = ResolveArg(head.object, binding);
          if (quad.subject == rdf::kInvalidTermId ||
              quad.predicate == rdf::kInvalidTermId ||
              quad.object == rdf::kInvalidTermId) {
            return Status::Internal(
                "unbound variable in head (validator should have caught)");
          }
          auto iv = logic::EvalInterval(*head.time, binding);
          if (!iv.has_value()) {
            *emit_clause = false;
            break;
          }
          quad.interval = *iv;
          heads->push_back(quad);
        }
        break;
      }
    }
    return Status::OK();
  }

  /// Intern one grounding's head atoms, record its provenance, and add its
  /// clause — the single network-mutation sequence of full and delta runs
  /// (a delta run records but defers clause construction to the caller).
  void ApplyGrounding(const CompiledRule& cr,
                      const std::vector<AtomId>& matched,
                      const std::vector<ResolvedQuad>& heads,
                      bool emit_clause) {
    GroundClause clause;
    clause.rule_index = cr.rule_index;
    clause.hard = cr.rule->hard;
    clause.weight = cr.rule->weight;
    for (AtomId atom : matched) {
      clause.literals.push_back(NegativeLiteral(atom));
    }
    std::vector<AtomId> head_atoms;
    head_atoms.reserve(heads.size());
    for (const ResolvedQuad& head : heads) {
      AtomId head_atom = net_->GetOrAddAtom(
          head.subject, head.predicate, head.object, head.interval,
          /*is_evidence=*/false, 0.0, rdf::kInvalidFactId);
      clause.literals.push_back(PositiveLiteral(head_atom));
      head_atoms.push_back(head_atom);
    }
    if (collected_ != nullptr) {
      StoredGrounding grounding;
      grounding.rule_index = cr.rule_index;
      grounding.matched = matched;
      grounding.heads = std::move(head_atoms);
      grounding.emit_clause = emit_clause;
      collected_->push_back(std::move(grounding));
    }
    if (!emit_clause || !add_clauses_) return;
    if (net_->AddClause(std::move(clause))) {
      ++result_->num_groundings;
    }
  }

  Status Emit(const CompiledRule& cr, const Binding& binding,
              const std::vector<AtomId>& matched) {
    // Semi-naive passes derive each grounding exactly once (every tuple
    // has a unique first frontier position), so no dedup is needed. The
    // naive path re-matches everything every round and must dedup so
    // counters and head evaluation fire once per distinct grounding.
    if (!options_.semi_naive) {
      uint64_t h = 1469598103934665603ULL;
      auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
      };
      mix(static_cast<uint64_t>(cr.rule_index) + 1);
      for (AtomId atom : matched) mix(atom + (1ULL << 33));
      if (!seen_groundings_.insert(h).second) return Status::OK();
    }
    bool satisfied = false, emit_clause = true;
    TECORE_RETURN_NOT_OK(
        EvalHead(cr, binding, &satisfied, &scratch_heads_, &emit_clause));
    if (satisfied) {
      ++result_->num_satisfied_heads;
      return Status::OK();  // grounding satisfied; no clause
    }
    if (!emit_clause && scratch_heads_.empty()) {
      return Status::OK();  // fully vacuous
    }
    ApplyGrounding(cr, matched, scratch_heads_, emit_clause);
    return Status::OK();
  }

  rdf::TemporalGraph* graph_;
  const rules::RuleSet& rules_;
  const GroundingOptions& options_;
  GroundingResult* result_;
  /// The network being grown: &result_->network for full runs, the
  /// caller's maintained network for delta runs.
  GroundNetwork* net_ = nullptr;
  /// Grounding provenance sink (null = not recording).
  std::vector<StoredGrounding>* collected_ = nullptr;
  /// Full runs add clauses as they go; delta runs only intern atoms.
  bool add_clauses_ = true;
  std::vector<CompiledRule> compiled_;
  std::unordered_set<uint64_t> seen_groundings_;  // naive mode only
  std::vector<ResolvedQuad> scratch_heads_;       // Emit's head buffer
};

}  // namespace

Grounder::Grounder(rdf::TemporalGraph* graph, const rules::RuleSet& rules,
                   GroundingOptions options)
    : graph_(graph), rules_(rules), options_(options) {}

Result<GroundingResult> Grounder::Run() {
  GroundingResult result;
  GroundingEngine engine(graph_, rules_, options_, &result);
  TECORE_RETURN_NOT_OK(engine.Execute());
  return result;
}

Result<DeltaGroundingResult> Grounder::GroundDelta(GroundNetwork* network,
                                                   rdf::FactId first_new_fact) {
  // Delta grounding *is* semi-naive frontier evaluation; the naive
  // ablation has no incremental counterpart.
  GroundingOptions options = options_;
  options.semi_naive = true;
  GroundingResult scratch;
  DeltaGroundingResult delta;
  GroundingEngine engine(graph_, rules_, options, &scratch);
  TECORE_RETURN_NOT_OK(engine.ExecuteDelta(network, first_new_fact, &delta));
  return delta;
}

}  // namespace ground
}  // namespace tecore
