#ifndef TECORE_API_ENGINE_H_
#define TECORE_API_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/conflict.h"
#include "core/edits.h"
#include "core/resolver.h"
#include "kb/statistics.h"
#include "mine/miner.h"
#include "rdf/graph.h"
#include "rules/ast.h"
#include "rules/validator.h"
#include "storage/kb_storage.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace tecore {
namespace api {

/// \brief An immutable, cheaply-shared view of the knowledge base at one
/// version.
///
/// A Snapshot is published atomically by the Engine after every successful
/// write and is never mutated afterwards (the lazily-computed conflict
/// report is the one internally-synchronized exception). Readers grab the
/// current snapshot in O(1) and keep using it for as long as they like —
/// later writes publish *new* snapshots and never touch this one, so a
/// browse of solve results can never observe a torn state.
///
/// The fact/term ids of `graph` are interchangeable with the writer-side
/// graph the cached `result` was computed against (see
/// rdf::TemporalGraph::Clone), which is what makes
/// `graph->FactToString(result->kept_facts[i])` and
/// `graph->FactToString(result->derived_facts[i].fact)` well-defined here,
/// and `result->ConsistentGraph(*graph)` the repaired KG of this version.
class Snapshot {
 public:
  /// Monotonically increasing publish version; 0 = pristine engine.
  uint64_t version = 0;
  /// The frozen UTKG; null until a graph was loaded. A copy-on-write fork
  /// of the writer's graph: it shares unchanged column chunks with the
  /// writer and with neighboring versions, so publishing it is O(delta).
  /// The graph holds no lock: readers only read it, and grounding against
  /// it only ever *interns* new terms, which the shared,
  /// internally-synchronized dictionary supports concurrently.
  std::shared_ptr<const rdf::TemporalGraph> graph;
  /// Dictionary size frozen at publish time (the dictionary itself is
  /// shared with concurrent readers whose grounding may intern more terms,
  /// so live `dict().Size()` is not stable for a frozen version).
  size_t num_terms = 0;
  /// The rule set active at publish time.
  std::shared_ptr<const rules::RuleSet> rules;
  /// Precomputed graph statistics (null iff `graph` is null).
  std::shared_ptr<const kb::GraphStatistics> stats;
  /// Sorted lexical forms of every IRI used as a predicate — the
  /// auto-completion data, precomputed so readers never iterate the
  /// dictionary (whole-dictionary iteration is not safe while another
  /// reader's grounding interns terms).
  std::shared_ptr<const std::vector<std::string>> predicates;
  /// The most recent resolve result, if any, and the options it was
  /// computed under.
  std::shared_ptr<const core::ResolveResult> result;
  core::ResolveOptions result_options;
  /// Sorted lexical predicate names the write producing this version could
  /// have affected (empty = none, e.g. a solve). Null when the impact is
  /// unknown (graph loads, rule writes, recovery) — filtered subscribers
  /// must treat null as "matches any filter".
  std::shared_ptr<const std::vector<std::string>> touched;

  bool has_graph() const { return graph != nullptr; }
  bool has_result() const { return result != nullptr; }

  /// \brief IRIs used as predicates whose lexical form starts with
  /// `prefix` (the Constraints Editor's auto-completion).
  std::vector<std::string> CompletePredicate(std::string_view prefix) const;

  /// \brief Conflict detection against this snapshot, under the default
  /// grounding options. The report is computed once and cached
  /// (subsequent calls are O(1)). Thread-safe.
  Result<std::shared_ptr<const core::ConflictReport>> DetectConflicts() const;

  /// \brief Render one conflict with its facts (results browser).
  std::string DescribeConflict(const core::Conflict& conflict) const;

  /// \brief Pattern-based constraint mining over this frozen version
  /// (src/mine/): exact support/violation counting, canonical ranking,
  /// `.tcr`-ready rules. Read-only and snapshot-local, so it never blocks
  /// the writer; safe to call concurrently.
  Result<mine::MiningReport> MineConstraints(
      const mine::MiningOptions& options = {}) const;

 private:
  friend class Engine;

  // Lazy conflict-report cache.
  mutable util::Mutex conflict_mutex_;
  mutable std::shared_ptr<const core::ConflictReport> conflict_report_
      TECORE_GUARDED_BY(conflict_mutex_);
  mutable std::optional<Status> conflict_status_
      TECORE_GUARDED_BY(conflict_mutex_);
};

/// \brief A (version, result) pair from Solve — the two always come from
/// the same publish, so callers can report self-consistent state even
/// while concurrent writers advance the engine.
struct SolveOutcome {
  uint64_t version = 0;
  /// True when served from the snapshot cache without re-solving.
  bool cached = false;
  std::shared_ptr<const core::ResolveResult> result;
  /// The snapshot `result` belongs to (same publish as `version`); fact
  /// ids in the result are ids of `snapshot->graph`.
  std::shared_ptr<const Snapshot> snapshot;
};

/// \brief Outcome of a write that re-solved the KB.
struct EditOutcome {
  uint64_t version = 0;
  core::EditApplication applied;
  std::shared_ptr<const core::ResolveResult> result;
  /// The snapshot this edit batch published.
  std::shared_ptr<const Snapshot> snapshot;
};

/// \brief Thread-safe service facade over the TeCoRe pipeline.
///
/// Concurrency contract (single-writer / many-reader):
///  * *Reads* (`snapshot()`, `Stats()`, `CompletePredicate()`,
///    `DetectConflicts()`, `MineConstraints()`, `CachedResult()`) never
///    take the writer lock: they copy the current snapshot pointer and
///    work on frozen state, so they never block writes and writes never
///    tear them.
///  * *Writes* (`LoadGraph*`, `SetGraph`, `AddRules*`, `ClearRules`,
///    `Solve`, `ApplyEdits`, `ApplyEditScript`) are serialized on an
///    internal writer mutex. Each successful write publishes a new
///    snapshot atomically with a monotonically increasing version.
///
/// Determinism: `ApplyEdits` goes through core::IncrementalResolver, so
/// every published result is bit-identical to a from-scratch resolve of
/// the edited KB — the determinism contract, extended to concurrent
/// service traffic.
class Engine {
 public:
  struct Options {
    /// How many recent snapshots stay reachable through `SnapshotAt` /
    /// `RetainedSince` (time-travel reads, SSE resume). Retention is
    /// near-free under copy-on-write chunk sharing — a retained version
    /// pins only the chunks that later writes touched. Minimum 1 (the
    /// current snapshot is always retained).
    size_t retain_versions = 8;
  };

  Engine() : Engine(Options()) {}
  explicit Engine(Options options);

  // --------------------------------------------------------------- reads
  /// \brief The current snapshot (never null; version 0 when pristine).
  std::shared_ptr<const Snapshot> snapshot() const;
  /// \brief Version of the current snapshot.
  uint64_t version() const { return snapshot()->version; }

  /// \brief Time-travel read: the snapshot published at `version`, served
  /// from the bounded retention ring. NotFound when `version` is ahead of
  /// the current snapshot (never published), Gone when it was published
  /// but has been evicted from retention (or fell inside a recovery gap).
  Result<std::shared_ptr<const Snapshot>> SnapshotAt(uint64_t version) const;

  /// \brief Retained versions strictly after `after`, oldest first, iff
  /// they form a gap-free chain `after+1 .. current` (the SSE-resume
  /// contract: a subscriber replays every missed version in order or none).
  /// Empty when the chain is broken, evicted, or `after` is current/ahead.
  std::vector<std::shared_ptr<const Snapshot>> RetainedSince(
      uint64_t after) const;

  /// \brief [oldest, newest] retained versions (equal when only the
  /// current snapshot is retained).
  std::pair<uint64_t, uint64_t> RetainedRange() const;

  /// \brief Statistics of the current graph.
  Result<kb::GraphStatistics> GraphStats() const;

  /// \brief Publish-path cache effectiveness counters (tests/metrics).
  struct CacheCounters {
    /// Completion index shared with the previous snapshot because the set
    /// of live predicates did not change.
    uint64_t completion_reused = 0;
    /// Completion index rebuilt (predicate set changed, or first graph).
    uint64_t completion_rebuilt = 0;
    /// Conflict report carried over from the previous snapshot because the
    /// touched predicates are disjoint from every rule predicate.
    uint64_t conflict_carried = 0;
  };
  CacheCounters cache_counters() const;

  // -------------------------------------------------------------- writes
  // Each write returns the exact snapshot it published, so callers can
  // report the state their write produced even when a competing writer
  // publishes again before they read.

  /// \brief Load a ".tq" file as the KB (resets rules-independent state:
  /// incremental resolver and cached result).
  Result<std::shared_ptr<const Snapshot>> LoadGraphFile(
      const std::string& path);
  /// \brief Parse ".tq" text as the KB.
  Result<std::shared_ptr<const Snapshot>> LoadGraphText(
      std::string_view text);
  /// \brief Adopt an existing graph. Fails only on a durability error
  /// (checkpointing the new graph), in which case nothing is published.
  Result<std::shared_ptr<const Snapshot>> SetGraph(rdf::TemporalGraph graph);

  /// \brief Outcome of appending rules from text.
  struct RulesOutcome {
    size_t added = 0;
    std::shared_ptr<const Snapshot> snapshot;
  };
  /// \brief Parse and append rules; returns how many were added.
  Result<RulesOutcome> AddRulesText(std::string_view text);
  /// \brief Append an already-parsed rule set. Fails only on a durability
  /// error, in which case the rule set is unchanged.
  Result<std::shared_ptr<const Snapshot>> AddRules(
      const rules::RuleSet& rules);
  /// \brief Drop all rules. Fails only on a durability error.
  Result<std::shared_ptr<const Snapshot>> ClearRules();

  /// \brief Compute (or return the cached) most probable conflict-free
  /// KG. A result computed under result-equivalent options is served from
  /// the snapshot without re-solving; otherwise the full pipeline runs
  /// under the writer lock and the result is published.
  Result<SolveOutcome> Solve(const core::ResolveOptions& options);

  /// \brief Apply KG edits and re-solve incrementally (only dirty
  /// components are re-solved; cached component solutions are spliced).
  /// Edits' term ids must reference this engine's graph dictionary — use
  /// `ApplyEditScript` for textual edits.
  Result<EditOutcome> ApplyEdits(const std::vector<core::GraphEdit>& edits,
                                 const core::ResolveOptions& options);

  /// \brief Parse an edit script (`+`/`-` fact lines) against the live
  /// graph and apply it atomically.
  Result<EditOutcome> ApplyEditScript(std::string_view script,
                                      const core::ResolveOptions& options);

  // ----------------------------------------------------------- durability
  /// \brief Adopt `storage` and recover its state: parse the checkpoint
  /// graph/rules and replay the WAL tail (edit batches and rule sets, in
  /// log order), then publish the recovered snapshot at the last durable
  /// version. No solve runs during recovery — results are caches, and the
  /// determinism contract guarantees the next Solve reproduces the
  /// pre-crash objective bit-for-bit. Subsequent writes are logged to
  /// `storage` before they publish and checkpoint per its policy. Must be
  /// called before the engine serves traffic (it asserts version 0).
  Status AttachStorage(std::shared_ptr<storage::KbStorage> storage);

  /// \brief Flush and drop the storage handle (the registry's delete path:
  /// detach, then destroy the directory). Later writes are in-memory only.
  void DetachStorage();

  /// \brief fsync pending WAL bytes (shutdown path under fsync=never).
  /// OK when no storage is attached.
  Status FlushStorage();

  /// \brief The attached storage, if any (the SSE resume read path).
  std::shared_ptr<storage::KbStorage> storage() const;

  // ---------------------------------------------------- publish observers
  /// Called once per publish with the snapshot just made current, and once
  /// with nullptr when the engine is retired (see CloseForListeners).
  using PublishListener =
      std::function<void(std::shared_ptr<const Snapshot>)>;

  /// \brief Register a publish observer; returns a handle for
  /// RemovePublishListener.
  ///
  /// Invocation contract: listeners run on the *writer's* thread while the
  /// writer lock is held, strictly in publish order — a listener observes
  /// every published version exactly once, with no gaps, reorders or
  /// duplicates. Listeners must therefore be fast and must never call back
  /// into Engine writes (deadlock); the intended shape is "push the
  /// snapshot onto a queue and notify" (the SSE subscription path).
  /// Registering does not replay the current snapshot — read `snapshot()`
  /// after registering and dedupe by version to seed without a gap. On an
  /// already-closed engine the listener is invoked inline with nullptr.
  uint64_t AddPublishListener(PublishListener listener);

  /// \brief Unregister; no-op for unknown handles. A publish already in
  /// flight on the writer thread may still deliver one final invocation,
  /// so listeners must own their target state (e.g. via shared_ptr).
  void RemovePublishListener(uint64_t id);

  /// \brief Retire the engine for observers: every registered listener is
  /// invoked with nullptr (in publish order w.r.t. prior writes) and
  /// dropped; later AddPublishListener calls get nullptr immediately.
  /// Called by the registry when the KB is deleted, so subscribers can end
  /// their streams instead of waiting forever.
  void CloseForListeners();

  /// \brief The live incremental state, if any. Writer-side diagnostics
  /// for tests; the returned pointer is only stable while no write runs.
  const core::IncrementalResolver* incremental_for_tests() const
      TECORE_EXCLUDES(writer_mutex_) {
    util::MutexLock lock(writer_mutex_);
    return incremental_.get();
  }

  /// \brief The writer-side master graph, if any. Writer-side diagnostics
  /// for tests (chunk-sharing invariants); the returned pointer is only
  /// stable while no write runs.
  const rdf::TemporalGraph* graph_for_tests() const
      TECORE_EXCLUDES(writer_mutex_) {
    util::MutexLock lock(writer_mutex_);
    return graph_.has_value() ? &*graph_ : nullptr;
  }

 private:
  /// Build a snapshot from the current writer state and publish it,
  /// returning it. When `graph_changed` is false the previous snapshot's
  /// frozen graph/stats/completion data are reused (rule-only writes must
  /// not pay an O(graph) clone); when true, the graph is forked
  /// copy-on-write (O(#chunks) pointer copies), statistics come from the
  /// incremental accumulator, and the completion index is shared with the
  /// previous snapshot unless the predicate set changed.
  ///
  /// `touched_predicates`, when non-null, lists the lexical predicate
  /// names this write could have affected (sorted, empty = none) and
  /// enables carrying the previous snapshot's cached conflict report
  /// forward when those names are disjoint from every rule predicate.
  /// Null = unknown impact, never carry.
  std::shared_ptr<const Snapshot> Publish(
      std::shared_ptr<const core::ResolveResult> result,
      const core::ResolveOptions& result_options, bool graph_changed,
      const std::vector<std::string>* touched_predicates = nullptr)
      TECORE_REQUIRES(writer_mutex_);

  /// Seed the statistics accumulator from graph_ and install the mutation
  /// observer feeding it. Called whenever graph_ is (re)adopted.
  void AdoptGraphLocked() TECORE_REQUIRES(writer_mutex_);

  /// Edit-application body shared by ApplyEdits/ApplyEditScript.
  Result<EditOutcome> ApplyEditsLocked(
      const std::vector<core::GraphEdit>& edits,
      const core::ResolveOptions& options) TECORE_REQUIRES(writer_mutex_);

  /// Append one record at version_ + 1 to the attached storage (no-op
  /// without storage). On error nothing may be published — callers return
  /// the status to the client with all state unchanged.
  Status LogRecord(storage::WalRecordType type, std::string payload)
      TECORE_REQUIRES(writer_mutex_);

  /// Write a checkpoint of the current writer state when the WAL has
  /// outgrown its policy. Best-effort: the write that triggered it is
  /// already durable in the WAL, so a failed checkpoint is reported on
  /// stderr, not to the client.
  void MaybeCheckpoint() TECORE_REQUIRES(writer_mutex_);

  /// Current writer state as a checkpoint at `version`.
  storage::Checkpoint CheckpointState(uint64_t version) const
      TECORE_REQUIRES(writer_mutex_);

  Options options_;

  /// Serializes all writes (graph/rule mutations and solving). Mutable so
  /// const diagnostics accessors can take a momentary lock.
  mutable util::Mutex writer_mutex_;
  // Writer-side master state. The master graph is mutated in place by the
  // incremental resolver; published snapshots hold id-preserving clones.
  std::optional<rdf::TemporalGraph> graph_ TECORE_GUARDED_BY(writer_mutex_);
  rules::RuleSet rules_ TECORE_GUARDED_BY(writer_mutex_);
  /// Immutable copy of rules_ shared by every snapshot published since the
  /// last rule write; reset by each write of rules_.
  std::shared_ptr<const rules::RuleSet> published_rules_
      TECORE_GUARDED_BY(writer_mutex_);
  std::unique_ptr<core::IncrementalResolver> incremental_
      TECORE_GUARDED_BY(writer_mutex_);
  uint64_t version_ TECORE_GUARDED_BY(writer_mutex_) = 0;
  /// Incremental statistics over graph_, also writer_mutex_ state — but
  /// carrying no annotation: it is fed through graph_'s mutation-observer
  /// std::function (installed in AdoptGraphLocked, fired only while the
  /// resolver mutates graph_ under the writer lock), and the analysis
  /// cannot see capabilities across that indirect call, so an annotation
  /// here would force a suppression in the observer body.
  kb::StatsAccumulator stats_acc_;
  /// graph_->pred_set_epoch() at the last graph-bearing publish; the
  /// completion index is reusable while it does not move.
  uint64_t published_pred_set_epoch_ TECORE_GUARDED_BY(writer_mutex_) = 0;

  /// Publish-path cache counters (relaxed: diagnostics only).
  std::atomic<uint64_t> completion_reused_{0};
  std::atomic<uint64_t> completion_rebuilt_{0};
  std::atomic<uint64_t> conflict_carried_{0};

  /// Durable storage; null for an in-memory engine. Guarded by
  /// storage_mutex_ alone (attach/detach/storage() all take it); writer
  /// paths grab a shared_ptr copy via storage() and work on that — the
  /// handle is immutable behind the pointer and internally synchronized.
  mutable util::Mutex storage_mutex_;
  std::shared_ptr<storage::KbStorage> storage_
      TECORE_GUARDED_BY(storage_mutex_);

  /// Guards the snapshot pointer swap and the retention ring (held for
  /// pointer-copy time).
  mutable util::Mutex snapshot_mutex_;
  std::shared_ptr<const Snapshot> snapshot_
      TECORE_GUARDED_BY(snapshot_mutex_);
  /// Bounded ring of recent snapshots, oldest first; always ends with the
  /// current snapshot. Contiguous versions except across a recovery jump.
  std::deque<std::shared_ptr<const Snapshot>> retained_
      TECORE_GUARDED_BY(snapshot_mutex_);

  /// Guards the listener table (add/remove may race reads); invocation
  /// happens outside this lock, serialized by writer_mutex_.
  util::Mutex listener_mutex_;
  std::map<uint64_t, PublishListener> listeners_
      TECORE_GUARDED_BY(listener_mutex_);
  uint64_t next_listener_id_ TECORE_GUARDED_BY(listener_mutex_) = 1;
  bool closed_ TECORE_GUARDED_BY(listener_mutex_) = false;
};

}  // namespace api
}  // namespace tecore

#endif  // TECORE_API_ENGINE_H_
