#include "ground/components.h"

#include <cstring>
#include <numeric>
#include <utility>

namespace tecore {
namespace ground {

namespace {

/// Root of `x` with path halving. Unions always hang the larger root under
/// the smaller one, so a root is the lowest id of its set.
uint32_t FindRoot(std::vector<uint32_t>* parent, uint32_t x) {
  std::vector<uint32_t>& p = *parent;
  while (p[x] != x) {
    p[x] = p[p[x]];
    x = p[x];
  }
  return x;
}

void Unite(std::vector<uint32_t>* parent, uint32_t a, uint32_t b) {
  a = FindRoot(parent, a);
  b = FindRoot(parent, b);
  if (a == b) return;
  if (b < a) std::swap(a, b);
  (*parent)[b] = a;
}

/// Counting sort of `num_items` items into `num_groups` groups: fills
/// `begin` (size num_groups + 1) and `out` (items in ascending order within
/// each group).
template <typename GroupOf>
void CountingSort(size_t num_items, size_t num_groups, GroupOf group_of,
                  std::vector<uint32_t>* begin, std::vector<uint32_t>* out) {
  begin->assign(num_groups + 1, 0);
  for (size_t i = 0; i < num_items; ++i) ++(*begin)[group_of(i) + 1];
  for (size_t g = 0; g < num_groups; ++g) (*begin)[g + 1] += (*begin)[g];
  std::vector<uint32_t> cursor(begin->begin(), begin->end() - 1);
  out->resize(num_items);
  for (size_t i = 0; i < num_items; ++i) {
    (*out)[cursor[group_of(i)]++] = static_cast<uint32_t>(i);
  }
}

/// Content signature of one component under *local* atom numbering:
/// clause literals, weights, hardness and rule indices, in clause order.
/// Two components with equal signatures pose the same MAP subproblem, so
/// the outcome of one is valid for the other (every backend is
/// deterministic).
Signature ComponentSignature(const GroundNetwork& network,
                             IdSpan<AtomId> atoms, IdSpan<uint32_t> clauses) {
  Signature sig;
  sig.Mix(atoms.size());
  for (uint32_t ci : clauses) {
    const GroundClause& clause = network.clauses()[ci];
    sig.Mix(static_cast<uint64_t>(static_cast<int64_t>(clause.rule_index)) +
            (1ULL << 20));
    sig.Mix(clause.hard ? 0x9e3779b97f4a7c15ULL : 0x85ebca6b0dd94bb3ULL);
    uint64_t weight_bits = 0;
    static_assert(sizeof(weight_bits) == sizeof(clause.weight));
    std::memcpy(&weight_bits, &clause.weight, sizeof(weight_bits));
    sig.Mix(weight_bits);
    sig.Mix(clause.literals.size());
    for (int32_t lit : clause.literals) {
      const uint64_t local = LocalAtomIndex(atoms, LiteralAtom(lit));
      sig.Mix((local << 1) | (LiteralSign(lit) ? 1 : 0));
    }
  }
  return sig;
}

}  // namespace

void ComponentPartition::Build(const GroundNetwork& network) {
  const size_t n = network.NumAtoms();
  ComponentPartition next;
  // One union-find pass; roots are lowest atom ids, so numbering roots in
  // atom order numbers components in canonical order.
  std::vector<uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  for (const GroundClause& clause : network.clauses()) {
    const uint32_t first = LiteralAtom(clause.literals[0]);
    for (size_t i = 1; i < clause.literals.size(); ++i) {
      Unite(&parent, first, LiteralAtom(clause.literals[i]));
    }
  }
  std::vector<uint32_t> component(n);
  uint32_t num_components = 0;
  for (AtomId a = 0; a < n; ++a) {
    const uint32_t root = FindRoot(&parent, a);
    component[a] = root == a ? num_components++ : component[root];
  }
  // Lay out the CSR runs: counting sorts over atoms and over clauses, each
  // clause keyed by its first atom.
  const std::vector<GroundClause>& net_clauses = network.clauses();
  CountingSort(
      n, num_components, [&component](size_t a) { return component[a]; },
      &next.atom_begin_, &next.atoms_);
  CountingSort(
      net_clauses.size(), num_components,
      [&component, &net_clauses](size_t ci) {
        return component[LiteralAtom(net_clauses[ci].literals[0])];
      },
      &next.clause_begin_, &next.clauses_);
  for (uint32_t c = 0; c < num_components; ++c) {
    if (next.has_clauses(c)) ++next.num_with_clauses_;
  }
  next.outcomes_.resize(num_components);
  next.solved_.assign(num_components, 0);
  next.atom_state_.assign(n, 0.0);

  // Splice by signature against the previous partition, whose index also
  // seeds the new one.
  if (indexed_) {
    next.index_.reserve(next.num_with_clauses_);
    for (uint32_t c = 0; c < num_components; ++c) {
      if (!next.has_clauses(c)) continue;
      const Signature sig =
          ComponentSignature(network, next.atoms(c), next.clauses(c));
      const uint32_t source = Lookup(sig);
      if (source != kNone) next.Splice(c, *this, source);
      next.index_.push_back({sig, c});
    }
    std::sort(next.index_.begin(), next.index_.end());
    next.indexed_ = true;
  }
  *this = std::move(next);
}

void ComponentPartition::ApplyInsertion(const GroundNetwork& network,
                                        const NetworkInsertion& insertion) {
  const AtomId at = insertion.atoms_at;
  const AtomId k = insertion.num_atoms;
  const std::vector<uint32_t>& inserted = insertion.clauses;
  if (k == 0 && inserted.empty()) return;
  const std::vector<GroundClause>& net_clauses = network.clauses();

  // Atoms at or past `at` (the derived block) moved up by k; their carried
  // states move with them.
  if (k > 0) {
    if (at < atom_state_.size()) {
      for (AtomId& a : atoms_) {
        if (a >= at) a += k;
      }
    }
    atom_state_.insert(atom_state_.begin() + at, k, 0.0);
  }

  // The common case appends: the inserted clauses join new atoms only, and
  // the new atoms sort after every old component's lowest atom, so the new
  // components come last in canonical order and every old one keeps its
  // number. Any other insertion re-partitions the updated network, which
  // splices every unchanged component back by signature.
  const uint32_t old_size = static_cast<uint32_t>(size());
  bool append = k > 0 && (old_size == 0 || atoms(old_size - 1)[0] < at);
  for (size_t j = 0; append && j < inserted.size(); ++j) {
    for (int32_t lit : net_clauses[inserted[j]].literals) {
      const AtomId a = LiteralAtom(lit);
      if (a < at || a >= at + k) {
        append = false;
        break;
      }
    }
  }
  if (!append) {
    Build(network);
    return;
  }

  // Union the new atoms along the inserted clauses. Roots are lowest ids,
  // so numbering roots in atom order numbers the new components in
  // canonical order.
  std::vector<uint32_t> parent(k);
  std::iota(parent.begin(), parent.end(), 0u);
  for (uint32_t ci : inserted) {
    const std::vector<int32_t>& lits = net_clauses[ci].literals;
    const uint32_t first = LiteralAtom(lits[0]) - at;
    for (size_t i = 1; i < lits.size(); ++i) {
      Unite(&parent, first, LiteralAtom(lits[i]) - at);
    }
  }
  std::vector<uint32_t> group(k);  // new component of each new atom, from 0
  uint32_t num_groups = 0;
  for (uint32_t i = 0; i < k; ++i) {
    const uint32_t root = FindRoot(&parent, i);
    group[i] = root == i ? num_groups++ : group[root];
  }
  std::vector<uint32_t> atom_begin;
  std::vector<uint32_t> atom_order;
  CountingSort(
      k, num_groups, [&group](size_t i) { return group[i]; }, &atom_begin,
      &atom_order);
  std::vector<uint32_t> clause_begin;
  std::vector<uint32_t> clause_order;
  CountingSort(
      inserted.size(), num_groups,
      [&](size_t j) {
        return group[LiteralAtom(net_clauses[inserted[j]].literals[0]) - at];
      },
      &clause_begin, &clause_order);

  // Old clause ids move up by the number of inserted clauses placed before
  // them.
  std::vector<uint32_t> before(inserted.size());
  for (size_t j = 0; j < inserted.size(); ++j) {
    before[j] = inserted[j] - static_cast<uint32_t>(j);
  }
  if (!before.empty() && before.front() < clauses_.size()) {
    for (uint32_t& ci : clauses_) {
      ci += static_cast<uint32_t>(
          std::upper_bound(before.begin(), before.end(), ci) - before.begin());
    }
  }

  // Append the new components' runs.
  const uint32_t atom_base = static_cast<uint32_t>(atoms_.size());
  const uint32_t clause_base = static_cast<uint32_t>(clauses_.size());
  for (uint32_t i : atom_order) atoms_.push_back(at + i);
  for (uint32_t j : clause_order) clauses_.push_back(inserted[j]);
  for (uint32_t g = 0; g < num_groups; ++g) {
    atom_begin_.push_back(atom_base + atom_begin[g + 1]);
    clause_begin_.push_back(clause_base + clause_begin[g + 1]);
    if (has_clauses(old_size + g)) ++num_with_clauses_;
  }
  outcomes_.resize(size());
  solved_.resize(size(), 0);

  // Splice or leave for the solver: only the new components are looked
  // up, against the components that existed before this update.
  if (!indexed_) return;
  std::vector<SignatureEntry> entries;
  for (uint32_t c = old_size; c < size(); ++c) {
    if (!has_clauses(c)) continue;
    const Signature sig = ComponentSignature(network, atoms(c), clauses(c));
    const uint32_t source = Lookup(sig);
    if (source != kNone) Splice(c, *this, source);
    entries.push_back({sig, c});
  }
  std::sort(entries.begin(), entries.end());
  const size_t mid = index_.size();
  index_.insert(index_.end(), entries.begin(), entries.end());
  std::inplace_merge(index_.begin(), index_.begin() + mid, index_.end());
}

std::vector<uint32_t> ComponentPartition::Unsolved() const {
  std::vector<uint32_t> out;
  for (uint32_t c = 0; c < size(); ++c) {
    if (has_clauses(c) && !solved_[c]) out.push_back(c);
  }
  return out;
}

void ComponentPartition::IndexSignatures(const GroundNetwork& network) {
  if (indexed_) return;
  index_.clear();
  index_.reserve(num_with_clauses_);
  for (uint32_t c = 0; c < size(); ++c) {
    if (!has_clauses(c)) continue;
    index_.push_back({ComponentSignature(network, atoms(c), clauses(c)), c});
  }
  std::sort(index_.begin(), index_.end());
  indexed_ = true;
}

uint32_t ComponentPartition::Lookup(const Signature& signature) const {
  const SignatureEntry probe{signature, 0};
  auto it = std::lower_bound(index_.begin(), index_.end(), probe);
  return it != index_.end() && it->signature == signature ? it->component
                                                          : kNone;
}

void ComponentPartition::Splice(uint32_t c, const ComponentPartition& from,
                                uint32_t source) {
  outcomes_[c] = from.outcomes_[source];
  solved_[c] = 1;
  const IdSpan<AtomId> to_atoms = atoms(c);
  const IdSpan<AtomId> from_atoms = from.atoms(source);
  for (size_t i = 0; i < to_atoms.size(); ++i) {
    atom_state_[to_atoms[i]] = from.atom_state_[from_atoms[i]];
  }
}

}  // namespace ground
}  // namespace tecore
