#ifndef TECORE_GROUND_GROUND_NETWORK_H_
#define TECORE_GROUND_GROUND_NETWORK_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rdf/graph.h"
#include "rdf/quad.h"
#include "temporal/interval.h"

namespace tecore {
namespace ground {

/// \brief Identifier of a ground atom within a GroundNetwork.
using AtomId = uint32_t;

/// \brief A ground quad atom: a fully instantiated (s, p, o, [b,e]).
///
/// Evidence atoms come from the input UTKG and carry a prior weight
/// (the sum of the confidences of their supporting facts); derived atoms
/// are created by inference-rule heads and have no evidence prior.
struct GroundAtom {
  rdf::TermId subject = rdf::kInvalidTermId;
  rdf::TermId predicate = rdf::kInvalidTermId;
  rdf::TermId object = rdf::kInvalidTermId;
  temporal::Interval interval{0, 0};
  bool is_evidence = false;
  /// Sum of the confidences of supporting input facts, so always > 0 for
  /// evidence atoms (0 for derived atoms).
  double prior_weight = 0.0;
  /// First supporting input fact (kInvalidFactId for derived atoms).
  rdf::FactId source_fact = rdf::kInvalidFactId;
};

/// \brief A ground clause: a weighted disjunction of atom literals.
///
/// Literals are encoded as +(atom+1) / -(atom+1). A hard clause must be
/// satisfied by any admissible world; a soft clause contributes `weight`
/// to the objective when satisfied.
struct GroundClause {
  std::vector<int32_t> literals;
  double weight = 0.0;
  bool hard = true;
  /// Index of the rule that produced it; -1 for evidence/derived priors.
  int32_t rule_index = -1;
};

/// \brief The canonical clause order: (literals, rule_index, hard,
/// weight). A total order on distinct clauses (two clauses equal on every
/// field would have been deduplicated).
bool CanonicalClauseLess(const GroundClause& a, const GroundClause& b);

/// \brief Field-wise clause equality (the dedup relation).
bool ClauseContentEquals(const GroundClause& a, const GroundClause& b);

/// \brief Weight of the negative unit prior on every derived atom.
inline constexpr double kDerivedPriorWeight = 0.05;

/// \brief Literal encoding helpers.
inline int32_t PositiveLiteral(AtomId atom) {
  return static_cast<int32_t>(atom) + 1;
}
inline int32_t NegativeLiteral(AtomId atom) {
  return -(static_cast<int32_t>(atom) + 1);
}
inline AtomId LiteralAtom(int32_t literal) {
  return static_cast<AtomId>((literal > 0 ? literal : -literal) - 1);
}
inline bool LiteralSign(int32_t literal) { return literal > 0; }

/// \brief One rule grounding, kept as provenance for incremental
/// maintenance: `matched` are the body atoms (negative literals of the
/// emitted clause), `heads` the interned head atoms (positive literals).
///
/// A grounding with `emit_clause == false` produced no clause (a head quad
/// had an empty time intersection, or the clause was a tautology) but its
/// interned head atoms still exist — it is derivation support, which is
/// why the clause list alone cannot drive DRed-style deletion.
struct StoredGrounding {
  int32_t rule_index = -1;
  std::vector<AtomId> matched;
  std::vector<AtomId> heads;
  bool emit_clause = true;
};

/// \brief The ground Markov network: interned atoms + deduplicated clauses
/// with the secondary indexes the grounding joins need.
class GroundNetwork {
 public:
  GroundNetwork() = default;
  GroundNetwork(const GroundNetwork&) = delete;
  GroundNetwork& operator=(const GroundNetwork&) = delete;
  GroundNetwork(GroundNetwork&&) = default;
  GroundNetwork& operator=(GroundNetwork&&) = default;

  /// \brief Intern a ground atom. If it already exists: evidence support is
  /// merged (prior weights add up); otherwise the id is returned unchanged.
  AtomId GetOrAddAtom(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                      const temporal::Interval& iv, bool is_evidence,
                      double prior_weight, rdf::FactId source_fact);

  /// \brief Find an existing atom (kInvalidAtomId if absent).
  static constexpr AtomId kInvalidAtomId = UINT32_MAX;
  AtomId FindAtom(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                  const temporal::Interval& iv) const;

  /// \brief Add a clause after normalization (sort/dedup literals, drop
  /// tautologies and duplicates). Returns true if the clause was new.
  bool AddClause(GroundClause clause);

  /// \brief Normalize a clause in place: sort and dedup literals, report
  /// whether it should be kept (false = tautology or empty). The exact
  /// rules AddClause applies, exposed so incremental maintenance can
  /// normalize identically without the dedup-hash side effects.
  static bool NormalizeClause(GroundClause* clause);

  size_t NumAtoms() const { return atoms_.size(); }
  size_t NumClauses() const { return clauses_.size(); }
  const GroundAtom& atom(AtomId id) const { return atoms_[id]; }
  const std::vector<GroundAtom>& atoms() const { return atoms_; }
  const std::vector<GroundClause>& clauses() const { return clauses_; }

  /// \brief Ids of atoms added at or after `since` (for semi-naive rounds).
  std::vector<AtomId> AtomsSince(AtomId since) const;

  /// The secondary indexes below return references that stay valid across
  /// later GetOrAddAtom calls (the maps are node-based), and each list is
  /// sorted ascending because atoms are only ever appended — the grounder
  /// relies on both properties for its zero-copy bounded candidate views.

  /// \brief Index: atoms with the given predicate.
  const std::vector<AtomId>& AtomsWithPredicate(rdf::TermId p) const;
  /// \brief Index: atoms with (predicate, subject).
  const std::vector<AtomId>& AtomsWithPredSubject(rdf::TermId p,
                                                  rdf::TermId s) const;
  /// \brief Index: atoms with (predicate, object).
  const std::vector<AtomId>& AtomsWithPredObject(rdf::TermId p,
                                                 rdf::TermId o) const;

  /// \brief Append one unit prior clause per atom (see PriorClause).
  void AddPriorClauses();

  /// \brief The unit prior of atom `id`: the soft unit (+a, prior_weight)
  /// for an evidence atom, so MAP maximizes the summed confidence of kept
  /// facts (the AAAI'17 companion paper's construction, which keeps the
  /// 0.5-confidence fact (3) of the paper's running example); the soft
  /// unit (-a, kDerivedPriorWeight) for a derived atom, so MAP prefers
  /// minimal models (ties otherwise).
  GroundClause PriorClause(AtomId id) const;

  /// \brief Number of evidence atoms. Every canonical layout (and every
  /// grounder output) keeps them as a prefix, so this is a binary search.
  AtomId NumEvidenceAtoms() const;

  /// \brief Canonical finalization: permute the derived-atom block into
  /// lexical (subject, predicate, object, interval) order, remap every
  /// clause literal, and sort the clause list with `SortClausesCanonical`.
  ///
  /// After this the network is a pure function of its *content* — the same
  /// atoms and clauses produce bit-identical layout no matter how they
  /// were discovered (naive, semi-naive, or incremental maintenance),
  /// which is what makes the incremental re-solve contract
  /// ("bit-identical to a from-scratch run") checkable as plain equality.
  /// Lexical keys (not term ids) keep the order independent of dictionary
  /// interning history. Requires the evidence atoms to form a prefix (the
  /// grounder seeds them first) and must run before AddPriorClauses.
  /// Returns the old-id -> new-id permutation.
  std::vector<AtomId> Canonicalize(const rdf::Dictionary& dict);

  /// \brief Sort clauses by (literals, rule_index, hard, weight) — a total
  /// order on distinct clauses. Part of the canonical form.
  void SortClausesCanonical();

  /// \brief Fast-path canonical restore, step 1: a delta pass appended
  /// only *fresh evidence* atoms [appended_begin, NumAtoms()) — no merges
  /// into existing atoms, no new derived atoms. Moves that block in front
  /// of the derived block and returns where it now starts (the old
  /// evidence count). Only atoms that actually move are rewritten: the
  /// derived block shifts up by the block size in the atom store, the
  /// indexes and the clause literals. With no derived atoms the layout is
  /// already canonical and nothing is touched. The shift is monotone on
  /// pre-existing atoms, so per-clause literal order and the canonical
  /// clause order both survive.
  AtomId MoveAppendedEvidence(AtomId appended_begin);

  /// \brief Fast-path canonical restore, step 2: insert normalized,
  /// canonically sorted, mutually distinct `rule_clauses` (each references
  /// a moved-in atom, so none duplicates an existing clause) into the
  /// sorted rule block, and `priors` (unit priors of consecutive new
  /// evidence atoms, ascending) into the prior block at their place in
  /// atom order. `inserted` receives the new index of every inserted
  /// clause, ascending. Work is proportional to the clauses after the
  /// first insertion point.
  void InsertCanonicalClauses(std::vector<GroundClause> rule_clauses,
                              std::vector<GroundClause> priors,
                              std::vector<uint32_t>* inserted);

  /// \brief Total weight of all soft clauses (upper bound of the MAP
  /// objective).
  double TotalSoftWeight() const;

  /// \brief Render one atom using a dictionary.
  std::string AtomToString(AtomId id, const rdf::Dictionary& dict) const;

 private:
  struct QuadKey {
    rdf::TermId s, p, o;
    int64_t b, e;
    bool operator==(const QuadKey& other) const {
      return s == other.s && p == other.p && o == other.o && b == other.b &&
             e == other.e;
    }
  };
  struct QuadKeyHash {
    size_t operator()(const QuadKey& k) const {
      uint64_t h = 1469598103934665603ULL;
      auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
      };
      mix(k.s);
      mix(k.p);
      mix(k.o);
      mix(static_cast<uint64_t>(k.b));
      mix(static_cast<uint64_t>(k.e));
      return static_cast<size_t>(h);
    }
  };
  struct PairHash {
    size_t operator()(const std::pair<rdf::TermId, rdf::TermId>& p) const {
      return std::hash<uint64_t>()((static_cast<uint64_t>(p.first) << 32) |
                                   p.second);
    }
  };

  std::vector<GroundAtom> atoms_;
  std::unordered_map<QuadKey, AtomId, QuadKeyHash> atom_index_;
  std::vector<GroundClause> clauses_;
  std::unordered_set<uint64_t> clause_hashes_;
  std::unordered_map<rdf::TermId, std::vector<AtomId>> by_pred_;
  std::unordered_map<std::pair<rdf::TermId, rdf::TermId>, std::vector<AtomId>,
                     PairHash>
      by_pred_subject_;
  std::unordered_map<std::pair<rdf::TermId, rdf::TermId>, std::vector<AtomId>,
                     PairHash>
      by_pred_object_;
};

/// \brief Sort atom ids by the canonical lexical key (subject, predicate,
/// object lexical forms + kinds, then interval). Dictionary-independent:
/// the relative order is the same no matter the interning history — the
/// property the incremental rebuild relies on to reproduce a from-scratch
/// `Canonicalize` without sharing its dictionary.
void SortAtomIdsLexical(const GroundNetwork& network,
                        const rdf::Dictionary& dict, std::vector<AtomId>* ids);

}  // namespace ground
}  // namespace tecore

#endif  // TECORE_GROUND_GROUND_NETWORK_H_
