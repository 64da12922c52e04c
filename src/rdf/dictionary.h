#ifndef TECORE_RDF_DICTIONARY_H_
#define TECORE_RDF_DICTIONARY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/term.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace tecore {
namespace rdf {

/// \brief Bidirectional term dictionary (string interning).
///
/// Every term in a graph is stored once; facts reference terms by dense
/// TermId. Grounding, indexing and solving all operate on ids; strings are
/// only materialized at the I/O boundary — the standard dictionary-encoding
/// design of RDF stores.
///
/// Interning is thread-safe and sharded: the term -> id index is split into
/// kNumShards hash-partitioned maps, each behind its own mutex, so
/// concurrent Intern() calls for different terms rarely contend. The
/// concurrent user is the server: TemporalGraph::Clone shares one
/// dictionary between a KB's writer and its published snapshots, so
/// snapshot grounding interns rule constants while the writer interns
/// edits. Ids come from a single atomic allocator, so they stay dense —
/// every id in [0, Size()) names exactly one term — and a single-threaded
/// caller (every parse) sees ids in insertion order 0,1,2,…. Under
/// concurrent interning the id *order* depends on the interleaving, but
/// the id <-> term mapping itself is always consistent.
///
/// Terms live in a doubling-bucket store with stable addresses, addressed
/// through a fixed directory of atomic pointers: Lookup() is lock-free and
/// the `const Term&` it returns is never invalidated by later interning.
/// Lookup(id) is safe for any id obtained from a completed Intern()/Find()
/// call; whole-dictionary iteration (Size(), CompleteIri()) additionally
/// assumes no interning is in flight on other threads.
class Dictionary {
 public:
  Dictionary();

  // Movable, not copyable (graphs can be large). Moving is not thread-safe:
  // no concurrent access to either side during the move.
  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;
  Dictionary(Dictionary&& other) noexcept;
  Dictionary& operator=(Dictionary&& other) noexcept;
  ~Dictionary();

  /// \brief Intern a term, returning its id (existing id if already known).
  /// Safe to call concurrently from multiple threads.
  TermId Intern(const Term& term);

  /// \brief Convenience: intern a bare IRI.
  TermId InternIri(std::string_view name) {
    return Intern(Term::Iri(std::string(name)));
  }

  /// \brief Convenience: intern an integer literal.
  TermId InternInt(int64_t value) { return Intern(Term::IntLiteral(value)); }

  /// \brief Lookup an existing term's id without interning.
  Result<TermId> Find(const Term& term) const;

  /// \brief Lookup an existing IRI's id without interning.
  Result<TermId> FindIri(std::string_view name) const;

  /// \brief The term for an id. Id must come from a completed Intern/Find.
  const Term& Lookup(TermId id) const;

  /// \brief Number of distinct terms (quiescent value; see class comment).
  size_t Size() const { return next_id_.load(std::memory_order_acquire); }

  /// \brief All IRIs whose lexical form starts with `prefix` (the data
  /// source behind the Constraints Editor's predicate auto-completion).
  std::vector<TermId> CompleteIri(std::string_view prefix) const;

 private:
  /// Shard count (power of two). 16 shards keep the per-shard collision
  /// probability low for concurrent snapshot readers and the writer while
  /// the single-threaded path pays only one uncontended lock per Intern.
  static constexpr size_t kNumShards = 16;

  /// Term storage: bucket 0 holds kFirstBucketSize slots, every further
  /// bucket doubles the total, so kNumBuckets buckets cover the whole
  /// 32-bit id space with a directory small enough to preallocate.
  static constexpr size_t kFirstBucketBits = 8;  // 256 slots in bucket 0
  static constexpr size_t kNumBuckets = 32 - kFirstBucketBits + 1;

  struct Shard {
    util::Mutex mutex;
    std::unordered_map<Term, TermId, TermHash> index
        TECORE_GUARDED_BY(mutex);
  };

  static size_t ShardFor(const Term& term) {
    // Re-mix the map hash so shard selection uses the top bits and the
    // per-shard map still sees well-distributed low bits.
    const uint64_t h = static_cast<uint64_t>(TermHash()(term));
    return static_cast<size_t>((h * 0x9E3779B97F4A7C15ULL) >> 60);
  }

  /// Bucket/offset of an id in the doubling-bucket store.
  static void Locate(TermId id, size_t* bucket, size_t* offset);

  /// Slot for a freshly allocated id; allocates its bucket if needed.
  Term* SlotFor(TermId id);

  std::unique_ptr<Shard[]> shards_;
  // Lock-free read path: the bucket directory is atomic pointers published
  // with release stores, so it carries no capability annotation. Writes
  // (bucket allocation) are serialized by bucket_alloc_mutex_ via the
  // double-checked pattern in SlotFor.
  std::unique_ptr<std::atomic<Term*>[]> buckets_;
  util::Mutex bucket_alloc_mutex_;
  std::atomic<TermId> next_id_{0};
};

}  // namespace rdf
}  // namespace tecore

#endif  // TECORE_RDF_DICTIONARY_H_
