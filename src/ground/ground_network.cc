#include "ground/ground_network.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "util/string_util.h"

namespace tecore {
namespace ground {

namespace {
const std::vector<AtomId> kEmptyAtomList;

/// Content hash used for clause dedup (literals + weight class + origin).
uint64_t ClauseContentHash(const GroundClause& clause) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (int32_t lit : clause.literals) {
    mix(static_cast<uint64_t>(static_cast<int64_t>(lit)) + (1ULL << 40));
  }
  mix(clause.hard ? 1 : 0);
  if (!clause.hard) {
    mix(static_cast<uint64_t>(std::llround(clause.weight * 1e6)));
  }
  mix(static_cast<uint64_t>(static_cast<int64_t>(clause.rule_index)) +
      (1ULL << 20));
  return h;
}

}  // namespace

bool CanonicalClauseLess(const GroundClause& a, const GroundClause& b) {
  if (a.literals != b.literals) return a.literals < b.literals;
  if (a.rule_index != b.rule_index) return a.rule_index < b.rule_index;
  if (a.hard != b.hard) return a.hard;
  return a.weight < b.weight;
}

bool ClauseContentEquals(const GroundClause& a, const GroundClause& b) {
  return a.literals == b.literals && a.rule_index == b.rule_index &&
         a.hard == b.hard && a.weight == b.weight;
}

AtomId GroundNetwork::GetOrAddAtom(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                                   const temporal::Interval& iv,
                                   bool is_evidence, double prior_weight,
                                   rdf::FactId source_fact) {
  QuadKey key{s, p, o, iv.begin(), iv.end()};
  auto it = atom_index_.find(key);
  if (it != atom_index_.end()) {
    GroundAtom& existing = atoms_[it->second];
    if (is_evidence) {
      // Merge support from another input fact with the same quad.
      existing.prior_weight += prior_weight;
      if (!existing.is_evidence) {
        existing.is_evidence = true;
        existing.source_fact = source_fact;
      }
    }
    return it->second;
  }
  AtomId id = static_cast<AtomId>(atoms_.size());
  GroundAtom atom;
  atom.subject = s;
  atom.predicate = p;
  atom.object = o;
  atom.interval = iv;
  atom.is_evidence = is_evidence;
  atom.prior_weight = is_evidence ? prior_weight : 0.0;
  atom.source_fact = source_fact;
  atoms_.push_back(atom);
  atom_index_.emplace(key, id);
  by_pred_[p].push_back(id);
  by_pred_subject_[{p, s}].push_back(id);
  by_pred_object_[{p, o}].push_back(id);
  return id;
}

AtomId GroundNetwork::FindAtom(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                               const temporal::Interval& iv) const {
  QuadKey key{s, p, o, iv.begin(), iv.end()};
  auto it = atom_index_.find(key);
  return it == atom_index_.end() ? kInvalidAtomId : it->second;
}

bool GroundNetwork::NormalizeClause(GroundClause* clause) {
  // Normalize: sort, dedup, drop tautologies (p ∨ ¬p).
  std::sort(clause->literals.begin(), clause->literals.end());
  clause->literals.erase(
      std::unique(clause->literals.begin(), clause->literals.end()),
      clause->literals.end());
  for (size_t i = 0; i + 1 < clause->literals.size(); ++i) {
    if (clause->literals[i] == -clause->literals[i + 1] ||
        (clause->literals[i] < 0 &&
         std::binary_search(clause->literals.begin(), clause->literals.end(),
                            -clause->literals[i]))) {
      return false;  // tautology
    }
  }
  return !clause->literals.empty();
}

bool GroundNetwork::AddClause(GroundClause clause) {
  if (!NormalizeClause(&clause)) return false;
  // Dedup by content hash (includes weight class and origin).
  if (!clause_hashes_.insert(ClauseContentHash(clause)).second) return false;
  clauses_.push_back(std::move(clause));
  return true;
}

std::vector<AtomId> GroundNetwork::AtomsSince(AtomId since) const {
  std::vector<AtomId> out;
  for (AtomId id = since; id < atoms_.size(); ++id) out.push_back(id);
  return out;
}

const std::vector<AtomId>& GroundNetwork::AtomsWithPredicate(
    rdf::TermId p) const {
  auto it = by_pred_.find(p);
  return it == by_pred_.end() ? kEmptyAtomList : it->second;
}

const std::vector<AtomId>& GroundNetwork::AtomsWithPredSubject(
    rdf::TermId p, rdf::TermId s) const {
  auto it = by_pred_subject_.find({p, s});
  return it == by_pred_subject_.end() ? kEmptyAtomList : it->second;
}

const std::vector<AtomId>& GroundNetwork::AtomsWithPredObject(
    rdf::TermId p, rdf::TermId o) const {
  auto it = by_pred_object_.find({p, o});
  return it == by_pred_object_.end() ? kEmptyAtomList : it->second;
}

GroundClause GroundNetwork::PriorClause(AtomId id) const {
  const GroundAtom& atom = atoms_[id];
  GroundClause clause;
  clause.rule_index = -1;
  clause.hard = false;
  if (atom.is_evidence) {
    clause.literals = {PositiveLiteral(id)};
    clause.weight = atom.prior_weight;
  } else {
    clause.literals = {NegativeLiteral(id)};
    clause.weight = kDerivedPriorWeight;
  }
  return clause;
}

void GroundNetwork::AddPriorClauses() {
  // Direct append: unit priors are already normalized, cannot be
  // tautologies, and cannot collide with rule clauses (rule_index -1) or
  // each other (one per atom) — skipping AddClause's dedup hashing shaves
  // a measurable slice off every (re)build.
  for (AtomId id = 0; id < atoms_.size(); ++id) {
    clauses_.push_back(PriorClause(id));
  }
}

AtomId GroundNetwork::NumEvidenceAtoms() const {
  return static_cast<AtomId>(
      std::partition_point(atoms_.begin(), atoms_.end(),
                           [](const GroundAtom& a) { return a.is_evidence; }) -
      atoms_.begin());
}

namespace {
/// Lexical sort key of one atom: dictionary-independent (two dictionaries
/// interning the same terms in different orders yield the same key order).
struct AtomLexicalKey {
  std::string s, p, o;
  uint8_t s_kind = 0, p_kind = 0, o_kind = 0;
  int64_t begin = 0, end = 0;
  AtomId id = 0;

  bool operator<(const AtomLexicalKey& other) const {
    if (s != other.s) return s < other.s;
    if (s_kind != other.s_kind) return s_kind < other.s_kind;
    if (p != other.p) return p < other.p;
    if (p_kind != other.p_kind) return p_kind < other.p_kind;
    if (o != other.o) return o < other.o;
    if (o_kind != other.o_kind) return o_kind < other.o_kind;
    if (begin != other.begin) return begin < other.begin;
    return end < other.end;
  }
};

AtomLexicalKey MakeLexicalKey(const GroundAtom& atom,
                              const rdf::Dictionary& dict, AtomId id) {
  AtomLexicalKey key;
  const rdf::Term& s = dict.Lookup(atom.subject);
  const rdf::Term& p = dict.Lookup(atom.predicate);
  const rdf::Term& o = dict.Lookup(atom.object);
  key.s = s.lexical();
  key.s_kind = static_cast<uint8_t>(s.kind());
  key.p = p.lexical();
  key.p_kind = static_cast<uint8_t>(p.kind());
  key.o = o.lexical();
  key.o_kind = static_cast<uint8_t>(o.kind());
  key.begin = atom.interval.begin();
  key.end = atom.interval.end();
  key.id = id;
  return key;
}
}  // namespace

void SortAtomIdsLexical(const GroundNetwork& network,
                        const rdf::Dictionary& dict,
                        std::vector<AtomId>* ids) {
  std::vector<AtomLexicalKey> keys;
  keys.reserve(ids->size());
  for (AtomId id : *ids) {
    keys.push_back(MakeLexicalKey(network.atom(id), dict, id));
  }
  std::sort(keys.begin(), keys.end());
  for (size_t i = 0; i < keys.size(); ++i) (*ids)[i] = keys[i].id;
}

std::vector<AtomId> GroundNetwork::Canonicalize(const rdf::Dictionary& dict) {
  static const auto stage_hist = obs::StageHistogram("canonicalize");
  obs::ScopedTimer stage_timer(stage_hist);
  const AtomId n = static_cast<AtomId>(atoms_.size());
  // Evidence atoms are a prefix (seeded before any rule fires) and are
  // already canonically ordered: first-supporting-fact order.
  AtomId evidence_end = 0;
  while (evidence_end < n && atoms_[evidence_end].is_evidence) ++evidence_end;

  std::vector<AtomId> derived;
  derived.reserve(n - evidence_end);
  for (AtomId id = evidence_end; id < n; ++id) derived.push_back(id);
  SortAtomIdsLexical(*this, dict, &derived);

  std::vector<AtomId> remap(n);
  for (AtomId id = 0; id < evidence_end; ++id) remap[id] = id;
  for (size_t i = 0; i < derived.size(); ++i) {
    remap[derived[i]] = evidence_end + static_cast<AtomId>(i);
  }

  // Permute the atom store and rebuild every index over the new ids.
  std::vector<GroundAtom> reordered(n);
  for (AtomId id = 0; id < n; ++id) reordered[remap[id]] = atoms_[id];
  atoms_ = std::move(reordered);
  atom_index_.clear();
  by_pred_.clear();
  by_pred_subject_.clear();
  by_pred_object_.clear();
  for (AtomId id = 0; id < n; ++id) {
    const GroundAtom& a = atoms_[id];
    atom_index_.emplace(
        QuadKey{a.subject, a.predicate, a.object, a.interval.begin(),
                a.interval.end()},
        id);
    by_pred_[a.predicate].push_back(id);
    by_pred_subject_[{a.predicate, a.subject}].push_back(id);
    by_pred_object_[{a.predicate, a.object}].push_back(id);
  }

  // Remap clause literals (re-sorting each clause) and restore the dedup
  // hashes, which are literal-dependent.
  clause_hashes_.clear();
  for (GroundClause& clause : clauses_) {
    for (int32_t& lit : clause.literals) {
      const AtomId atom = remap[LiteralAtom(lit)];
      lit = LiteralSign(lit) ? PositiveLiteral(atom) : NegativeLiteral(atom);
    }
    std::sort(clause.literals.begin(), clause.literals.end());
    clause_hashes_.insert(ClauseContentHash(clause));
  }
  SortClausesCanonical();
  return remap;
}

void GroundNetwork::SortClausesCanonical() {
  std::sort(clauses_.begin(), clauses_.end(), CanonicalClauseLess);
}

AtomId GroundNetwork::MoveAppendedEvidence(AtomId appended_begin) {
  static const auto stage_hist = obs::StageHistogram("canonicalize");
  obs::ScopedTimer stage_timer(stage_hist);
  const AtomId n = static_cast<AtomId>(atoms_.size());
  // Atoms below appended_begin are canonical: evidence prefix, then the
  // derived block.
  const AtomId evidence_end = static_cast<AtomId>(
      std::partition_point(atoms_.begin(), atoms_.begin() + appended_begin,
                           [](const GroundAtom& a) { return a.is_evidence; }) -
      atoms_.begin());
  if (evidence_end == appended_begin || appended_begin == n) {
    return evidence_end;  // no derived block (or nothing appended)
  }
  const AtomId k = n - appended_begin;
  // Ids at or past evidence_end move: derived atoms up by k, the appended
  // block down to evidence_end.
  auto remap = [evidence_end, appended_begin, k](AtomId id) {
    if (id < evidence_end) return id;
    return id < appended_begin ? id + k : evidence_end + (id - appended_begin);
  };
  std::rotate(atoms_.begin() + evidence_end, atoms_.begin() + appended_begin,
              atoms_.end());
  // Each moved atom's lookup entry, and the tails of the index lists it
  // sits in: entries below evidence_end never move, so only the tail from
  // there is rewritten and re-sorted (the appended ids now sort ahead of
  // the shifted derived ones).
  std::vector<std::vector<AtomId>*> lists;
  lists.reserve(3 * static_cast<size_t>(n - evidence_end));
  for (AtomId id = evidence_end; id < n; ++id) {
    const GroundAtom& a = atoms_[id];
    atom_index_[QuadKey{a.subject, a.predicate, a.object, a.interval.begin(),
                        a.interval.end()}] = id;
    lists.push_back(&by_pred_[a.predicate]);
    lists.push_back(&by_pred_subject_[{a.predicate, a.subject}]);
    lists.push_back(&by_pred_object_[{a.predicate, a.object}]);
  }
  std::sort(lists.begin(), lists.end());
  lists.erase(std::unique(lists.begin(), lists.end()), lists.end());
  for (std::vector<AtomId>* list : lists) {
    auto tail = std::lower_bound(list->begin(), list->end(), evidence_end);
    for (auto it = tail; it != list->end(); ++it) *it = remap(*it);
    std::sort(tail, list->end());
  }
  // Clause literals: appended atoms appear in no existing clause, so the
  // only rewrite is the monotone shift of the derived atoms.
  for (GroundClause& clause : clauses_) {
    for (int32_t& lit : clause.literals) {
      const AtomId atom = LiteralAtom(lit);
      if (atom < evidence_end) continue;
      lit = LiteralSign(lit) ? PositiveLiteral(atom + k)
                             : NegativeLiteral(atom + k);
    }
  }
  // Dedup hashes are literal-dependent and only serve AddClause, which the
  // fast-path owner never calls (it inserts via InsertCanonicalClauses).
  clause_hashes_.clear();
  return evidence_end;
}

void GroundNetwork::InsertCanonicalClauses(
    std::vector<GroundClause> rule_clauses, std::vector<GroundClause> priors,
    std::vector<uint32_t>* inserted) {
  inserted->clear();
  if (rule_clauses.empty() && priors.empty()) return;
  // Insertion points in old-list coordinates. The list is [sorted rule
  // clauses][priors in atom order]; rule_index separates the two blocks.
  const size_t old_size = clauses_.size();
  const auto rule_end = std::partition_point(
      clauses_.begin(), clauses_.end(),
      [](const GroundClause& c) { return c.rule_index >= 0; });
  std::vector<std::pair<size_t, GroundClause>> items;
  items.reserve(rule_clauses.size() + priors.size());
  for (GroundClause& clause : rule_clauses) {
    const size_t pos = static_cast<size_t>(
        std::lower_bound(clauses_.begin(), rule_end, clause,
                         CanonicalClauseLess) -
        clauses_.begin());
    items.emplace_back(pos, std::move(clause));
  }
  if (!priors.empty()) {
    // The new atoms sit between the old evidence and the derived atoms,
    // whose priors (if any) close the list.
    const AtomId first_new = LiteralAtom(priors.front().literals[0]);
    const size_t prior_begin = static_cast<size_t>(rule_end - clauses_.begin());
    size_t pos = old_size;
    while (pos > prior_begin &&
           LiteralAtom(clauses_[pos - 1].literals[0]) > first_new) {
      --pos;
    }
    for (GroundClause& clause : priors) {
      items.emplace_back(pos, std::move(clause));
    }
  }
  // `items` is already ordered by position (rule clauses land inside the
  // rule block, priors at or after its end). Merge from the back: each old
  // clause moves once, up by the number of inserted clauses ahead of it.
  clauses_.resize(old_size + items.size());
  size_t src = old_size;
  size_t dst = clauses_.size();
  for (size_t j = items.size(); j-- > 0;) {
    while (src > items[j].first) clauses_[--dst] = std::move(clauses_[--src]);
    clauses_[--dst] = std::move(items[j].second);
  }
  inserted->reserve(items.size());
  for (size_t j = 0; j < items.size(); ++j) {
    inserted->push_back(static_cast<uint32_t>(items[j].first + j));
  }
}

double GroundNetwork::TotalSoftWeight() const {
  double total = 0.0;
  for (const GroundClause& clause : clauses_) {
    if (!clause.hard) total += clause.weight;
  }
  return total;
}

std::string GroundNetwork::AtomToString(AtomId id,
                                        const rdf::Dictionary& dict) const {
  const GroundAtom& a = atoms_[id];
  return StringPrintf("(%s, %s, %s, %s)%s",
                      dict.Lookup(a.subject).ToString().c_str(),
                      dict.Lookup(a.predicate).ToString().c_str(),
                      dict.Lookup(a.object).ToString().c_str(),
                      a.interval.ToString().c_str(),
                      a.is_evidence ? "" : "*");
}

}  // namespace ground
}  // namespace tecore
