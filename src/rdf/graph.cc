#include "rdf/graph.h"

#include <algorithm>
#include <type_traits>

#include "obs/metrics.h"
#include "util/string_util.h"

namespace tecore {
namespace rdf {

void FactChunk::BuildIndex() {
  const size_t n = size();
  subj_idx.clear();
  pred_idx.clear();
  subj_idx.reserve(n);
  pred_idx.reserve(n);
  for (size_t l = 0; l < n; ++l) {
    subj_idx.emplace_back(subject[l], static_cast<uint16_t>(l));
    pred_idx.emplace_back(predicate[l], static_cast<uint16_t>(l));
  }
  // (term, local) pairs: sorting is stable w.r.t. id order within a term.
  std::sort(subj_idx.begin(), subj_idx.end());
  std::sort(pred_idx.begin(), pred_idx.end());
  indexed = true;
}

namespace {

/// Append the live rows of `chunk` matching `term` in `postings` (sorted
/// (term, local) pairs) as global fact ids.
void ProbePostings(const FactChunk& chunk,
                   const std::vector<std::pair<TermId, uint16_t>>& postings,
                   TermId term, FactId chunk_base, std::vector<FactId>* out) {
  auto range = std::equal_range(
      postings.begin(), postings.end(), term,
      [](const auto& a, const auto& b) {
        if constexpr (std::is_same_v<std::decay_t<decltype(a)>, TermId>) {
          return a < b.first;
        } else {
          return a.first < b;
        }
      });
  for (auto it = range.first; it != range.second; ++it) {
    if (chunk.dead[it->second] == 0) {
      out->push_back(chunk_base + it->second);
    }
  }
}

}  // namespace

TemporalGraph::TemporalGraph() : dict_(std::make_shared<Dictionary>()) {}

TemporalGraph::TemporalGraph(TemporalGraph&& other) noexcept
    : dict_(std::move(other.dict_)),
      chunks_(std::move(other.chunks_)),
      num_facts_(other.num_facts_),
      num_live_(other.num_live_),
      edit_epoch_(other.edit_epoch_),
      pred_set_epoch_(other.pred_set_epoch_),
      pred_live_counts_(std::move(other.pred_live_counts_)),
      chunks_copied_(other.chunks_copied_),
      observer_(std::move(other.observer_)) {
  other.num_facts_ = other.num_live_ = 0;
}

TemporalGraph& TemporalGraph::operator=(TemporalGraph&& other) noexcept {
  if (this == &other) return *this;
  dict_ = std::move(other.dict_);
  chunks_ = std::move(other.chunks_);
  num_facts_ = other.num_facts_;
  num_live_ = other.num_live_;
  edit_epoch_ = other.edit_epoch_;
  pred_set_epoch_ = other.pred_set_epoch_;
  pred_live_counts_ = std::move(other.pred_live_counts_);
  chunks_copied_ = other.chunks_copied_;
  observer_ = std::move(other.observer_);
  other.num_facts_ = other.num_live_ = 0;
  return *this;
}

FactChunk* TemporalGraph::MutableChunk(size_t ci) {
  std::shared_ptr<FactChunk>& slot = chunks_[ci];
  if (slot.use_count() > 1) {
    slot = std::make_shared<FactChunk>(*slot);
    ++chunks_copied_;
    // Process-wide COW pressure: how often writers pay a full chunk copy
    // because a retained snapshot still shares the column.
    static const auto copies = obs::Registry::Default()->GetCounter(
        "tecore_graph_chunk_copies_total");
    copies->Inc();
  }
  return slot.get();
}

void TemporalGraph::AppendRow(TermId subject, TermId predicate,
                              TermId object,
                              const temporal::Interval& interval,
                              double confidence) {
  const size_t ci = num_facts_ >> kChunkShift;
  FactChunk* chunk;
  if (ci == chunks_.size()) {
    chunks_.push_back(std::make_shared<FactChunk>());
    chunk = chunks_.back().get();
    chunk->subject.reserve(kChunkSize);
    chunk->predicate.reserve(kChunkSize);
    chunk->object.reserve(kChunkSize);
    chunk->interval.reserve(kChunkSize);
    chunk->confidence.reserve(kChunkSize);
    chunk->dead.reserve(kChunkSize);
  } else {
    chunk = MutableChunk(ci);
  }
  chunk->subject.push_back(subject);
  chunk->predicate.push_back(predicate);
  chunk->object.push_back(object);
  chunk->interval.push_back(interval);
  chunk->confidence.push_back(confidence);
  chunk->dead.push_back(0);
  if (chunk->size() == kChunkSize) chunk->BuildIndex();
  ++num_facts_;
}

Result<FactId> TemporalGraph::Add(const TemporalFact& fact) {
  if (fact.confidence <= 0.0 || fact.confidence > 1.0) {
    return Status::InvalidArgument(
        StringPrintf("confidence must be in (0,1], got %g", fact.confidence));
  }
  if (fact.subject == kInvalidTermId || fact.predicate == kInvalidTermId ||
      fact.object == kInvalidTermId) {
    return Status::InvalidArgument("fact references an invalid term id");
  }
  const FactId id = static_cast<FactId>(num_facts_);
  AppendRow(fact.subject, fact.predicate, fact.object, fact.interval,
            fact.confidence);
  ++num_live_;
  ++edit_epoch_;
  size_t& live = pred_live_counts_[fact.predicate];
  if (live == 0) ++pred_set_epoch_;
  ++live;
  if (observer_) observer_(fact, /*insert=*/true);
  return id;
}

Status TemporalGraph::Retract(FactId id) {
  if (id >= num_facts_) {
    return Status::InvalidArgument(
        StringPrintf("cannot retract fact %u: out of range", id));
  }
  if (!is_live(id)) {
    return Status::InvalidArgument(
        StringPrintf("fact %u is already retracted", id));
  }
  const TemporalFact f = fact(id);
  FactChunk* chunk = MutableChunk(id >> kChunkShift);
  chunk->dead[id & kChunkMask] = 1;
  ++chunk->num_dead;
  --num_live_;
  ++edit_epoch_;
  size_t& live = pred_live_counts_[f.predicate];
  --live;
  if (live == 0) ++pred_set_epoch_;
  if (observer_) observer_(f, /*insert=*/false);
  return Status::OK();
}

std::vector<TemporalFact> TemporalGraph::facts() const {
  std::vector<TemporalFact> out;
  out.reserve(num_facts_);
  for (FactId id = 0; id < num_facts_; ++id) out.push_back(fact(id));
  return out;
}

size_t TemporalGraph::LiveRank(FactId id) const {
  size_t rank = 0;
  const size_t target_chunk = id >> kChunkShift;
  for (size_t ci = 0; ci < chunks_.size() && ci < target_chunk; ++ci) {
    rank += chunks_[ci]->num_live();
  }
  if (target_chunk < chunks_.size()) {
    const FactChunk& c = *chunks_[target_chunk];
    const size_t local = std::min<size_t>(id & kChunkMask, c.size());
    for (size_t l = 0; l < local; ++l) {
      if (c.dead[l] == 0) ++rank;
    }
  }
  return rank;
}

TemporalGraph TemporalGraph::CompactLive() const {
  std::vector<bool> keep(num_facts_, false);
  for (FactId id = 0; id < num_facts_; ++id) keep[id] = is_live(id);
  return Filter(keep);
}

TemporalGraph TemporalGraph::Clone() const {
  TemporalGraph out;
  out.dict_ = dict_;  // append-only and internally synchronized: shareable
  out.chunks_ = chunks_;
  out.num_facts_ = num_facts_;
  out.num_live_ = num_live_;
  out.edit_epoch_ = edit_epoch_;
  out.pred_set_epoch_ = pred_set_epoch_;
  out.pred_live_counts_ = pred_live_counts_;
  return out;
}

TemporalGraph TemporalGraph::DeepCopy() const {
  TemporalGraph out;
  // Re-interning in id order reproduces ids 0,1,2,… exactly (the
  // dictionary's single-threaded insertion-order guarantee), so the columns
  // can be copied verbatim.
  const size_t num_terms = dict_->Size();
  for (TermId id = 0; id < num_terms; ++id) {
    out.dict_->Intern(dict_->Lookup(id));
  }
  out.chunks_.reserve(chunks_.size());
  for (const auto& chunk : chunks_) {
    out.chunks_.push_back(std::make_shared<FactChunk>(*chunk));
  }
  out.num_facts_ = num_facts_;
  out.num_live_ = num_live_;
  out.edit_epoch_ = edit_epoch_;
  out.pred_set_epoch_ = pred_set_epoch_;
  out.pred_live_counts_ = pred_live_counts_;
  return out;
}

Result<FactId> TemporalGraph::AddQuad(std::string_view subject,
                                      std::string_view predicate,
                                      const Term& object,
                                      temporal::Interval interval,
                                      double confidence) {
  TemporalFact fact(dict_->InternIri(subject), dict_->InternIri(predicate),
                    dict_->Intern(object), interval, confidence);
  return Add(fact);
}

std::vector<FactId> TemporalGraph::FactsWithPredicate(TermId predicate) const {
  std::vector<FactId> out;
  for (size_t ci = 0; ci < chunks_.size(); ++ci) {
    const FactChunk& c = *chunks_[ci];
    const FactId base = static_cast<FactId>(ci << kChunkShift);
    if (c.indexed) {
      ProbePostings(c, c.pred_idx, predicate, base, &out);
    } else {
      for (size_t l = 0; l < c.size(); ++l) {
        if (c.predicate[l] == predicate && c.dead[l] == 0) {
          out.push_back(base + static_cast<FactId>(l));
        }
      }
    }
  }
  return out;
}

std::vector<FactId> TemporalGraph::FactsWithSubject(TermId subject) const {
  std::vector<FactId> out;
  for (size_t ci = 0; ci < chunks_.size(); ++ci) {
    const FactChunk& c = *chunks_[ci];
    const FactId base = static_cast<FactId>(ci << kChunkShift);
    if (c.indexed) {
      ProbePostings(c, c.subj_idx, subject, base, &out);
    } else {
      for (size_t l = 0; l < c.size(); ++l) {
        if (c.subject[l] == subject && c.dead[l] == 0) {
          out.push_back(base + static_cast<FactId>(l));
        }
      }
    }
  }
  return out;
}

std::vector<FactId> TemporalGraph::FactsWithSubjectPredicate(
    TermId subject, TermId predicate) const {
  std::vector<FactId> out;
  for (size_t ci = 0; ci < chunks_.size(); ++ci) {
    const FactChunk& c = *chunks_[ci];
    const FactId base = static_cast<FactId>(ci << kChunkShift);
    if (c.indexed) {
      auto range = std::equal_range(
          c.subj_idx.begin(), c.subj_idx.end(),
          std::make_pair(subject, uint16_t{0}),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      for (auto it = range.first; it != range.second; ++it) {
        const size_t l = it->second;
        if (c.predicate[l] == predicate && c.dead[l] == 0) {
          out.push_back(base + static_cast<FactId>(l));
        }
      }
    } else {
      for (size_t l = 0; l < c.size(); ++l) {
        if (c.subject[l] == subject && c.predicate[l] == predicate &&
            c.dead[l] == 0) {
          out.push_back(base + static_cast<FactId>(l));
        }
      }
    }
  }
  return out;
}

std::vector<std::pair<TermId, size_t>> TemporalGraph::PredicateCounts() const {
  std::vector<std::pair<TermId, size_t>> out;
  out.reserve(pred_live_counts_.size());
  for (const auto& [pred, live] : pred_live_counts_) {
    out.emplace_back(pred, live);
  }
  // Ties break on the lexical form: term-id order is interleaving-dependent
  // once readers intern into the shared dictionary, lexical order is not.
  std::sort(out.begin(), out.end(), [this](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return dict_->Lookup(a.first).ToString() <
           dict_->Lookup(b.first).ToString();
  });
  return out;
}

TemporalGraph TemporalGraph::Filter(const std::vector<bool>& keep) const {
  TemporalGraph out;
  // Each distinct term is interned once, through a dense source -> output
  // table, in the order a row-by-row Add of the kept facts would intern it
  // (subject, predicate, object per row), so term ids match that copy.
  std::vector<TermId> term_map(dict_->Size(), kInvalidTermId);
  auto map_term = [&](TermId t) {
    TermId& mapped = term_map[t];
    if (mapped == kInvalidTermId) mapped = out.dict_->Intern(dict_->Lookup(t));
    return mapped;
  };
  std::vector<size_t> pred_counts;  // by output term id
  for (size_t ci = 0; ci < chunks_.size(); ++ci) {
    const FactChunk& src = *chunks_[ci];
    const size_t base = ci << kChunkShift;
    for (size_t l = 0; l < src.size(); ++l) {
      const size_t id = base + l;
      if (src.dead[l] != 0 || id >= keep.size() || !keep[id]) continue;
      const TermId subject = map_term(src.subject[l]);
      const TermId predicate = map_term(src.predicate[l]);
      const TermId object = map_term(src.object[l]);
      out.AppendRow(subject, predicate, object, src.interval[l],
                    src.confidence[l]);
      if (predicate >= pred_counts.size()) pred_counts.resize(predicate + 1, 0);
      ++pred_counts[predicate];
    }
  }
  // The bookkeeping Add keeps per row, settled once.
  out.num_live_ = out.num_facts_;
  out.edit_epoch_ = out.num_facts_;
  for (TermId p = 0; p < pred_counts.size(); ++p) {
    if (pred_counts[p] == 0) continue;
    out.pred_live_counts_.emplace(p, pred_counts[p]);
    ++out.pred_set_epoch_;
  }
  return out;
}

std::string TemporalGraph::FactToString(FactId id) const {
  return FactToString(fact(id));
}

std::string TemporalGraph::FactToString(const TemporalFact& fact) const {
  return StringPrintf(
      "(%s, %s, %s, %s) %.2f", dict_->Lookup(fact.subject).ToString().c_str(),
      dict_->Lookup(fact.predicate).ToString().c_str(),
      dict_->Lookup(fact.object).ToString().c_str(),
      fact.interval.ToString().c_str(), fact.confidence);
}

size_t TemporalGraph::CountSharedChunks(const TemporalGraph& a,
                                        const TemporalGraph& b) {
  const size_t n = std::min(a.chunks_.size(), b.chunks_.size());
  size_t shared = 0;
  for (size_t i = 0; i < n; ++i) {
    if (a.chunks_[i] == b.chunks_[i]) ++shared;
  }
  return shared;
}

Status TemporalGraph::CheckInvariants() const {
  size_t facts = 0;
  size_t live = 0;
  std::unordered_map<TermId, size_t> recount;
  for (size_t ci = 0; ci < chunks_.size(); ++ci) {
    const FactChunk& c = *chunks_[ci];
    const size_t n = c.size();
    if (c.predicate.size() != n || c.object.size() != n ||
        c.interval.size() != n || c.confidence.size() != n ||
        c.dead.size() != n) {
      return Status::Internal(
          StringPrintf("chunk %zu: column sizes disagree", ci));
    }
    if (n > kChunkSize) {
      return Status::Internal(StringPrintf("chunk %zu: overfull (%zu)", ci, n));
    }
    if (ci + 1 < chunks_.size() && n != kChunkSize) {
      return Status::Internal(
          StringPrintf("chunk %zu: non-tail chunk not full (%zu)", ci, n));
    }
    uint32_t dead = 0;
    for (size_t l = 0; l < n; ++l) {
      if (c.dead[l]) {
        ++dead;
      } else {
        ++recount[c.predicate[l]];
        ++live;
      }
    }
    if (dead != c.num_dead) {
      return Status::Internal(StringPrintf(
          "chunk %zu: num_dead %u != tombstone count %u", ci, c.num_dead,
          dead));
    }
    if (n == kChunkSize && !c.indexed) {
      return Status::Internal(StringPrintf("chunk %zu: full but unindexed",
                                           ci));
    }
    if (c.indexed) {
      if (c.subj_idx.size() != n || c.pred_idx.size() != n) {
        return Status::Internal(
            StringPrintf("chunk %zu: posting sizes disagree", ci));
      }
      if (!std::is_sorted(c.subj_idx.begin(), c.subj_idx.end()) ||
          !std::is_sorted(c.pred_idx.begin(), c.pred_idx.end())) {
        return Status::Internal(
            StringPrintf("chunk %zu: postings unsorted", ci));
      }
      for (const auto& [term, l] : c.subj_idx) {
        if (l >= n || c.subject[l] != term) {
          return Status::Internal(
              StringPrintf("chunk %zu: subject posting mismatch", ci));
        }
      }
      for (const auto& [term, l] : c.pred_idx) {
        if (l >= n || c.predicate[l] != term) {
          return Status::Internal(
              StringPrintf("chunk %zu: predicate posting mismatch", ci));
        }
      }
    }
    facts += n;
  }
  if (facts != num_facts_) {
    return Status::Internal(StringPrintf("num_facts %zu != column rows %zu",
                                         num_facts_, facts));
  }
  if (live != num_live_) {
    return Status::Internal(
        StringPrintf("num_live %zu != live rows %zu", num_live_, live));
  }
  for (const auto& [pred, count] : recount) {
    auto it = pred_live_counts_.find(pred);
    if (it == pred_live_counts_.end() || it->second != count) {
      return Status::Internal(StringPrintf(
          "predicate %u: live count %zu != recount %zu", pred,
          it == pred_live_counts_.end() ? size_t{0} : it->second, count));
    }
  }
  for (const auto& [pred, count] : pred_live_counts_) {
    if (count != 0 && recount.find(pred) == recount.end()) {
      return Status::Internal(StringPrintf(
          "predicate %u: live count %zu but no live facts", pred, count));
    }
  }
  return Status::OK();
}

Status TemporalGraph::CheckTombstoneMonotone(const TemporalGraph& base,
                                             const TemporalGraph& derived) {
  if (derived.NumFacts() < base.NumFacts()) {
    return Status::Internal(StringPrintf(
        "derived graph shrank: %zu -> %zu facts", base.NumFacts(),
        derived.NumFacts()));
  }
  for (FactId id = 0; id < base.NumFacts(); ++id) {
    if (!base.is_live(id) && derived.is_live(id)) {
      return Status::Internal(
          StringPrintf("fact %u resurrected in derived version", id));
    }
  }
  return Status::OK();
}

}  // namespace rdf
}  // namespace tecore
