#ifndef TECORE_GROUND_COMPONENTS_H_
#define TECORE_GROUND_COMPONENTS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ground/ground_network.h"

namespace tecore {
namespace ground {

/// \brief A read-only run of ids inside one of ComponentPartition's flat
/// arrays (a C++17 stand-in for std::span).
template <typename T>
class IdSpan {
 public:
  IdSpan(const T* first, const T* last) : first_(first), last_(last) {}
  const T* begin() const { return first_; }
  const T* end() const { return last_; }
  size_t size() const { return static_cast<size_t>(last_ - first_); }
  bool empty() const { return first_ == last_; }
  T operator[](size_t i) const { return first_[i]; }

 private:
  const T* first_;
  const T* last_;
};

/// \brief Position of `atom` in a component's ascending atom list: the
/// local variable number every per-component translation uses.
inline uint32_t LocalAtomIndex(IdSpan<AtomId> atoms, AtomId atom) {
  return static_cast<uint32_t>(
      std::lower_bound(atoms.begin(), atoms.end(), atom) - atoms.begin());
}

/// \brief 128-bit content signature (two independent FNV-1a streams); keys
/// the per-component MAP outcomes a ComponentPartition splices.
struct Signature {
  uint64_t lo = 1469598103934665603ULL;
  uint64_t hi = 0xcbf29ce484222325ULL ^ 0x9e3779b97f4a7c15ULL;

  void Mix(uint64_t v) {
    lo = (lo ^ v) * 1099511628211ULL;
    hi = (hi ^ (v + 0x9e3779b97f4a7c15ULL)) * 0x100000001b3ULL;
    hi ^= hi >> 29;
  }
  bool operator==(const Signature& other) const {
    return lo == other.lo && hi == other.hi;
  }
  bool operator<(const Signature& other) const {
    return lo != other.lo ? lo < other.lo : hi < other.hi;
  }
};

/// \brief The MAP outcome of one component, in backend-neutral form.
struct ComponentOutcome {
  /// MLN: satisfied soft weight. PSL: hinge energy of the ADMM state.
  double objective = 0.0;
  /// MLN: violated soft weight. PSL: unused.
  double violated = 0.0;
  /// MLN: search steps. PSL: ADMM iterations.
  uint64_t steps = 0;
  /// MLN: every hard clause satisfied. PSL: unused.
  bool feasible = true;
  /// MLN: proven optimal. PSL: ADMM converged.
  bool exact = true;
};

/// \brief What an insert-only (fast-path) update changed in a canonical
/// network, in the terms ComponentPartition::ApplyInsertion needs.
struct NetworkInsertion {
  /// The new evidence atoms are [atoms_at, atoms_at + num_atoms); every
  /// atom that was at or past `atoms_at` (the derived block) moved up by
  /// `num_atoms`.
  AtomId atoms_at = 0;
  AtomId num_atoms = 0;
  /// New indices of the inserted clauses (fresh rule clauses and the new
  /// atoms' priors), ascending. Every other clause kept its relative
  /// order.
  std::vector<uint32_t> clauses;
};

/// \brief The connected components of a ground network ("shares a clause";
/// a unit clause attaches to its atom's component), each with the MAP
/// outcome a solver recorded for it, carried across network edits.
///
/// Layout: flat arrays only. Components are numbered in *canonical order*
/// (ascending lowest atom id); `atoms(c)` and `clauses(c)` are ascending
/// runs of two CSR arrays, and each atom's solved state (MLN truth value as
/// 0/1, PSL soft truth) lives in one array over atoms. Solvers reduce
/// objectives in canonical order, so a result assembled from carried and
/// freshly solved outcomes is bit-identical to solving every component
/// from scratch.
///
/// Three ways in:
///  * Build() partitions a network from scratch in one union-find pass and
///    two counting sorts. With an index of the previous partition's
///    signatures (IndexSignatures), every new component whose signature
///    matches a previous one takes over that outcome; the rest start
///    unsolved.
///  * ApplyInsertion() folds an insert-only update in. When the inserted
///    clauses join new atoms only and the new atoms sort after every old
///    component (facts that extend no existing component), the new
///    components are appended: only they are looked up by signature or
///    left for the solver, and every old component, with its outcome, is
///    carried over untouched. Any other insertion re-partitions through
///    Build(), which splices every unchanged component back by signature.
///  * The solver records outcomes of the components Unsolved() lists.
class ComponentPartition {
 public:
  /// \brief Partition `network` from scratch (see class comment). The
  /// previous partition is the splice source when it was indexed.
  void Build(const GroundNetwork& network);

  /// \brief Fold an insert-only update of the network this partition
  /// describes; `network` is the updated network. The append case costs
  /// O(new atoms + inserted clauses) beyond two flat id shifts; the rest
  /// costs a Build(), which keeps outcomes only if the partition is
  /// indexed.
  void ApplyInsertion(const GroundNetwork& network,
                      const NetworkInsertion& insertion);

  /// \brief Sign every component with clauses, so the next Build or
  /// ApplyInsertion can splice outcomes by signature. `network` must be the
  /// network this partition describes. Once built, the index is kept up to
  /// date by both update paths, so repeated calls cost nothing.
  void IndexSignatures(const GroundNetwork& network);

  size_t size() const { return atom_begin_.size() - 1; }
  IdSpan<AtomId> atoms(uint32_t c) const {
    return {atoms_.data() + atom_begin_[c], atoms_.data() + atom_begin_[c + 1]};
  }
  IdSpan<uint32_t> clauses(uint32_t c) const {
    return {clauses_.data() + clause_begin_[c],
            clauses_.data() + clause_begin_[c + 1]};
  }
  bool has_clauses(uint32_t c) const {
    return clause_begin_[c] != clause_begin_[c + 1];
  }

  /// \brief Components with clauses and no recorded outcome, ascending.
  std::vector<uint32_t> Unsolved() const;
  /// \brief Components with clauses.
  size_t NumWithClauses() const { return num_with_clauses_; }

  const ComponentOutcome& outcome(uint32_t c) const { return outcomes_[c]; }
  double atom_state(AtomId atom) const { return atom_state_[atom]; }

  /// \brief Record a solved component.
  void set_outcome(uint32_t c, const ComponentOutcome& outcome) {
    outcomes_[c] = outcome;
    solved_[c] = 1;
  }
  void set_atom_state(AtomId atom, double value) { atom_state_[atom] = value; }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct SignatureEntry {
    Signature signature;
    uint32_t component = 0;
    bool operator<(const SignatureEntry& other) const {
      return signature < other.signature;
    }
  };

  /// Component of `signature` in index_, or kNone.
  uint32_t Lookup(const Signature& signature) const;
  /// Adopt the outcome and atom state of `source` (in `from`, with its own
  /// atom state) for component `c` of this partition.
  void Splice(uint32_t c, const ComponentPartition& from, uint32_t source);

  // CSR partition; components in canonical order.
  std::vector<uint32_t> atom_begin_{0};
  std::vector<AtomId> atoms_;
  std::vector<uint32_t> clause_begin_{0};
  std::vector<uint32_t> clauses_;
  size_t num_with_clauses_ = 0;
  // Carried MAP state.
  std::vector<ComponentOutcome> outcomes_;
  std::vector<uint8_t> solved_;
  std::vector<double> atom_state_;
  // Signatures of the components with clauses, sorted; valid iff indexed_.
  std::vector<SignatureEntry> index_;
  bool indexed_ = false;
};

}  // namespace ground
}  // namespace tecore

#endif  // TECORE_GROUND_COMPONENTS_H_
