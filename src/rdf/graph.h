#ifndef TECORE_RDF_GRAPH_H_
#define TECORE_RDF_GRAPH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/quad.h"
#include "temporal/interval.h"
#include "util/status.h"

namespace tecore {
namespace rdf {

/// \brief One fixed-size slice of the fact store, laid out as SoA columns.
///
/// Chunks are the unit of copy-on-write sharing between graph versions: a
/// published snapshot and the writer's graph reference the same chunk
/// objects until the writer touches one, at which point only that chunk is
/// copied (see TemporalGraph::Clone). A chunk that is full ("frozen")
/// additionally carries sorted term -> local-row postings so subject /
/// predicate probes don't scan the columns.
struct FactChunk {
  std::vector<TermId> subject;
  std::vector<TermId> predicate;
  std::vector<TermId> object;
  std::vector<temporal::Interval> interval;
  std::vector<double> confidence;
  /// Tombstone column: 1 = retracted. Parallel to the value columns.
  std::vector<uint8_t> dead;
  uint32_t num_dead = 0;

  /// Sorted (term, local row) postings; valid iff `indexed`. Postings keep
  /// tombstoned rows (retraction never rewrites them) — probes filter on
  /// the `dead` column.
  std::vector<std::pair<TermId, uint16_t>> subj_idx;
  std::vector<std::pair<TermId, uint16_t>> pred_idx;
  bool indexed = false;

  size_t size() const { return subject.size(); }
  uint32_t num_live() const {
    return static_cast<uint32_t>(size()) - num_dead;
  }
  /// Build subj_idx / pred_idx from the columns (called when a chunk
  /// freezes at kChunkSize rows).
  void BuildIndex();
};

/// \brief In-memory uncertain temporal knowledge graph (UTKG), stored as a
/// persistent chunked columnar structure.
///
/// Facts live in SoA columns (s / p / o / interval / confidence / dead)
/// split into fixed-size chunks referenced through a per-version chunk
/// table of shared pointers. `Clone()` copies only the table — O(#chunks)
/// pointer copies — and subsequent mutations copy-on-write exactly the
/// chunks they touch, so publishing an immutable snapshot after an edit of
/// k facts costs O(k / kChunkSize) chunk copies instead of O(graph). The
/// term dictionary is shared between versions outright: it is append-only
/// and internally synchronized, so concurrent readers interning terms
/// (grounding) never invalidate anything a snapshot sees.
///
/// Facts are stored append-only; `Retract` tombstones a fact in place
/// (iteration must skip it via `is_live`) so fact ids stay stable across
/// edits — the property the incremental re-solve pipeline keys its caches
/// on. Every mutation bumps `edit_epoch`. Resolution still produces *new*
/// graphs (via `Filter`).
///
/// Secondary index: per-chunk sorted postings by subject and by predicate
/// — probes walk the chunk table (O(#chunks · log kChunkSize) per lookup).
/// The graph holds no lock: a frozen version is read-only, so concurrent
/// readers need none.
class TemporalGraph {
 public:
  static constexpr size_t kChunkShift = 10;
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;  // 1024
  static constexpr size_t kChunkMask = kChunkSize - 1;

  /// Observes every Add (insert=true) / Retract (insert=false) applied to
  /// *this* graph object — the hook the service layer uses to maintain
  /// incremental statistics. Not propagated by Clone/DeepCopy/Filter.
  using MutationObserver = std::function<void(const TemporalFact&, bool)>;

  TemporalGraph();

  TemporalGraph(const TemporalGraph&) = delete;
  TemporalGraph& operator=(const TemporalGraph&) = delete;
  TemporalGraph(TemporalGraph&& other) noexcept;
  TemporalGraph& operator=(TemporalGraph&& other) noexcept;

  /// \brief The term dictionary (mutable: interning happens through it).
  Dictionary& dict() { return *dict_; }
  const Dictionary& dict() const { return *dict_; }

  /// \brief Append a fact; returns its id. Confidence must be in (0,1].
  Result<FactId> Add(const TemporalFact& fact);

  /// \brief Convenience: intern bare-IRI subject/predicate and a term
  /// object, then append.
  Result<FactId> AddQuad(std::string_view subject, std::string_view predicate,
                         const Term& object, temporal::Interval interval,
                         double confidence);

  /// \brief Convenience for IRI objects.
  Result<FactId> AddQuad(std::string_view subject, std::string_view predicate,
                         std::string_view object, temporal::Interval interval,
                         double confidence) {
    return AddQuad(subject, predicate, Term::Iri(std::string(object)),
                   interval, confidence);
  }

  /// \brief Tombstone a fact: drops it from live iteration and index probes
  /// while keeping ids of later facts stable. Retracting an already-dead or
  /// out-of-range id is an error.
  Status Retract(FactId id);

  size_t NumFacts() const { return num_facts_; }

  /// \brief The fact at `id`, assembled from the columns. By value: the
  /// columnar store has no row object to reference. Binding the result to
  /// `const TemporalFact&` at call sites remains valid (lifetime
  /// extension).
  TemporalFact fact(FactId id) const {
    const FactChunk& c = *chunks_[id >> kChunkShift];
    const size_t l = id & kChunkMask;
    return TemporalFact(c.subject[l], c.predicate[l], c.object[l],
                        c.interval[l], c.confidence[l]);
  }

  /// \brief All facts (including tombstoned ones) materialized in id order.
  /// O(n); meant for whole-graph passes, not point access.
  std::vector<TemporalFact> facts() const;

  /// \brief True when `id` has not been retracted.
  bool is_live(FactId id) const {
    if (id >= num_facts_) return false;
    const FactChunk& c = *chunks_[id >> kChunkShift];
    return c.dead[id & kChunkMask] == 0;
  }
  /// \brief Number of live (non-retracted) facts.
  size_t NumLiveFacts() const { return num_live_; }
  /// \brief Position of a live fact among live facts in id order — the id
  /// the fact would have in `CompactLive()`'s output. O(#chunks).
  size_t LiveRank(FactId id) const;
  /// \brief Monotone counter bumped by every Add/Retract; lets cached
  /// derived state (grounding, MAP solutions) detect staleness.
  uint64_t edit_epoch() const { return edit_epoch_; }
  /// \brief Monotone counter bumped only when the *set* of live predicates
  /// changes (a predicate's live count transitions 0 <-> nonzero). Lets the
  /// service layer reuse completion indexes across publishes that didn't
  /// change which predicates exist.
  uint64_t pred_set_epoch() const { return pred_set_epoch_; }

  /// \brief New self-contained graph holding exactly the live facts, in id
  /// order. Equivalent to what a fresh parse of the edited KB would load.
  TemporalGraph CompactLive() const;

  /// \brief O(#chunks) copy-on-write fork: the new graph shares the term
  /// dictionary and every fact chunk with this one. Fact ids and term ids
  /// are interchangeable between the two — the property the snapshot
  /// layer relies on. Later mutations of either side copy only the chunks
  /// they touch. Must not run concurrently with mutations of this graph.
  TemporalGraph Clone() const;

  /// \brief Deep copy preserving term ids, fact ids and tombstones, sharing
  /// nothing — every chunk is copied and the dictionary re-interned in id
  /// order. O(graph). This is the pre-COW `Clone()` semantics, kept as the
  /// reference baseline for the differential snapshot tests and the
  /// clone-vs-COW publish benchmark. Must not run concurrently with
  /// mutations of this graph.
  TemporalGraph DeepCopy() const;

  /// \brief Ids of live facts with the given predicate, ascending.
  std::vector<FactId> FactsWithPredicate(TermId predicate) const;

  /// \brief Ids of live facts with the given subject, ascending.
  std::vector<FactId> FactsWithSubject(TermId subject) const;

  /// \brief Ids of live facts with the given (subject, predicate) pair.
  std::vector<FactId> FactsWithSubjectPredicate(TermId subject,
                                                TermId predicate) const;

  /// \brief Distinct predicates with their live fact counts, most frequent
  /// first; ties broken by the predicate's lexical form (not term id, which
  /// is interleaving-dependent once the dictionary is shared with
  /// concurrent readers). Predicates whose facts were all retracted stay
  /// listed with count 0.
  std::vector<std::pair<TermId, size_t>> PredicateCounts() const;

  /// \brief New graph containing exactly the live facts where keep[id] is
  /// true, in id order. The dictionary is rebuilt (the new graph is
  /// self-contained): each distinct term is interned once, in first-use
  /// order, and kept rows are appended straight into the new columns.
  TemporalGraph Filter(const std::vector<bool>& keep) const;

  /// \brief Render one fact as "(s, p, o, [b,e]) conf".
  std::string FactToString(FactId id) const;
  std::string FactToString(const TemporalFact& fact) const;

  /// \brief Install (or clear, with nullptr) the mutation observer.
  void SetMutationObserver(MutationObserver observer) {
    observer_ = std::move(observer);
  }

  // ------------------------------------------------- sharing diagnostics
  /// \brief Number of chunks in the table.
  size_t NumChunks() const { return chunks_.size(); }
  /// \brief Chunks copy-on-written by mutations of this graph object since
  /// construction / Clone (a Clone starts at 0). The differential harness
  /// asserts an edit of k facts copies O(k / kChunkSize) chunks.
  uint64_t chunk_copies() const { return chunks_copied_; }
  /// \brief Chunk pointers `a` and `b` share (pointer equality).
  static size_t CountSharedChunks(const TemporalGraph& a,
                                  const TemporalGraph& b);

  /// \brief Structural self-check: column sizes per chunk, frozen-chunk
  /// index validity, tombstone/live counts, per-predicate live counts.
  /// O(n); meant for tests and debug builds.
  Status CheckInvariants() const;

  /// \brief Tombstone monotonicity across versions: every fact dead in
  /// `base` must be dead in `derived` (a derived version never resurrects
  /// a retracted fact), and `derived` extends `base`.
  static Status CheckTombstoneMonotone(const TemporalGraph& base,
                                       const TemporalGraph& derived);

 private:
  /// The chunk at `ci`, private to this graph version: copied first if it
  /// is shared with another version (the COW step).
  FactChunk* MutableChunk(size_t ci);

  /// Append one live row as fact num_facts_: a new chunk when the last one
  /// is full, the six columns, and the chunk's postings once it fills.
  /// Liveness and per-predicate bookkeeping is the caller's.
  void AppendRow(TermId subject, TermId predicate, TermId object,
                 const temporal::Interval& interval, double confidence);

  std::shared_ptr<Dictionary> dict_;
  std::vector<std::shared_ptr<FactChunk>> chunks_;
  size_t num_facts_ = 0;
  size_t num_live_ = 0;
  uint64_t edit_epoch_ = 0;
  uint64_t pred_set_epoch_ = 0;
  /// Live fact count per predicate ever seen (entries may be 0).
  std::unordered_map<TermId, size_t> pred_live_counts_;
  uint64_t chunks_copied_ = 0;
  MutationObserver observer_;
};

}  // namespace rdf
}  // namespace tecore

#endif  // TECORE_RDF_GRAPH_H_
