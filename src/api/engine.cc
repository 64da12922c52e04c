#include "api/engine.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"
#include "rdf/io.h"
#include "rules/parser.h"
#include "storage/fault.h"
#include "util/string_util.h"

namespace tecore {
namespace api {

namespace {

/// Lexical names of every predicate mentioned by a rule atom (bodies and
/// quad heads). Returns false when some atom's predicate is a variable —
/// such a rule can match any predicate, so predicate-disjointness reasoning
/// is off the table.
bool CollectRulePredicates(const rules::RuleSet& rules,
                           std::vector<std::string>* out) {
  auto collect = [&out](const logic::QuadAtom& atom) {
    if (atom.predicate.is_variable()) return false;
    out->push_back(atom.predicate.constant().ToString());
    return true;
  };
  for (const rules::Rule& rule : rules.rules) {
    for (const logic::QuadAtom& atom : rule.body) {
      if (!collect(atom)) return false;
    }
    for (const logic::QuadAtom& atom : rule.head.quads) {
      if (!collect(atom)) return false;
    }
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  return true;
}

/// True when two sorted string vectors share no element.
bool SortedDisjoint(const std::vector<std::string>& a,
                    const std::vector<std::string>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const int cmp = a[i].compare(b[j]);
    if (cmp == 0) return false;
    if (cmp < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------- Snapshot

std::vector<std::string> Snapshot::CompletePredicate(
    std::string_view prefix) const {
  std::vector<std::string> out;
  if (!predicates) return out;
  // predicates is sorted: the matches form one contiguous range.
  auto begin = std::lower_bound(predicates->begin(), predicates->end(), prefix,
                                [](const std::string& p, std::string_view pre) {
                                  return std::string_view(p) < pre;
                                });
  for (auto it = begin; it != predicates->end(); ++it) {
    if (it->compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(*it);
  }
  return out;
}

Result<std::shared_ptr<const core::ConflictReport>> Snapshot::DetectConflicts()
    const {
  if (!graph) return Status::InvalidArgument("no graph loaded");
  // Detection only *reads* the frozen graph apart from thread-safe term
  // interning, so running it on the const snapshot graph is sound; the
  // detector's signature is non-const because the grounder shares it with
  // mutating pipelines.
  rdf::TemporalGraph* g = const_cast<rdf::TemporalGraph*>(graph.get());
  util::MutexLock lock(conflict_mutex_);
  if (conflict_status_.has_value()) {
    if (!conflict_status_->ok()) return *conflict_status_;
    return conflict_report_;
  }
  core::ConflictDetector detector(g, *rules);
  auto report = detector.Detect();
  conflict_status_ = report.ok() ? Status::OK() : report.status();
  if (!report.ok()) return report.status();
  conflict_report_ =
      std::make_shared<const core::ConflictReport>(std::move(*report));
  return conflict_report_;
}

std::string Snapshot::DescribeConflict(const core::Conflict& conflict) const {
  std::string out;
  if (!rules || conflict.rule_index < 0 ||
      static_cast<size_t>(conflict.rule_index) >= rules->rules.size()) {
    out += "violates <unknown constraint>:\n";
  } else {
    const rules::Rule& rule =
        rules->rules[static_cast<size_t>(conflict.rule_index)];
    out += "violates " +
           (rule.name.empty() ? std::string("<unnamed constraint>")
                              : rule.name) +
           ":\n";
  }
  if (graph) {
    for (rdf::FactId id : conflict.facts) {
      out += "  " + graph->FactToString(id) + "\n";
    }
  }
  return out;
}

Result<mine::MiningReport> Snapshot::MineConstraints(
    const mine::MiningOptions& options) const {
  if (!graph) return Status::InvalidArgument("no graph loaded");
  // Mining is read-only over the frozen graph (index scans; no interning,
  // no mutation), so the const snapshot graph is the right input: the pass
  // can never block or be torn by the writer.
  return mine::Miner(options).Mine(*graph);
}

// ------------------------------------------------------------------ Engine

Engine::Engine(Options options) : options_(std::move(options)) {
  auto snap = std::make_shared<Snapshot>();
  snap->rules = std::make_shared<const rules::RuleSet>();
  snap->predicates = std::make_shared<const std::vector<std::string>>();
  util::MutexLock lock(snapshot_mutex_);
  snapshot_ = std::move(snap);
  retained_.push_back(snapshot_);
}

std::shared_ptr<const Snapshot> Engine::snapshot() const {
  util::MutexLock lock(snapshot_mutex_);
  return snapshot_;
}

Result<std::shared_ptr<const Snapshot>> Engine::SnapshotAt(
    uint64_t version) const {
  util::MutexLock lock(snapshot_mutex_);
  if (version > snapshot_->version) {
    return Status::NotFound(StringPrintf(
        "version %llu has not been published (current is %llu)",
        static_cast<unsigned long long>(version),
        static_cast<unsigned long long>(snapshot_->version)));
  }
  for (const auto& snap : retained_) {
    if (snap->version == version) return snap;
  }
  return Status::Gone(StringPrintf(
      "version %llu is no longer retained (retained: %llu..%llu)",
      static_cast<unsigned long long>(version),
      static_cast<unsigned long long>(retained_.front()->version),
      static_cast<unsigned long long>(retained_.back()->version)));
}

std::vector<std::shared_ptr<const Snapshot>> Engine::RetainedSince(
    uint64_t after) const {
  std::vector<std::shared_ptr<const Snapshot>> out;
  util::MutexLock lock(snapshot_mutex_);
  for (const auto& snap : retained_) {
    if (snap->version > after) out.push_back(snap);
  }
  if (out.empty() || out.front()->version != after + 1) return {};
  for (size_t i = 1; i < out.size(); ++i) {
    if (out[i]->version != out[i - 1]->version + 1) return {};
  }
  return out;
}

std::pair<uint64_t, uint64_t> Engine::RetainedRange() const {
  util::MutexLock lock(snapshot_mutex_);
  return {retained_.front()->version, retained_.back()->version};
}

Engine::CacheCounters Engine::cache_counters() const {
  CacheCounters out;
  out.completion_reused = completion_reused_.load(std::memory_order_relaxed);
  out.completion_rebuilt = completion_rebuilt_.load(std::memory_order_relaxed);
  out.conflict_carried = conflict_carried_.load(std::memory_order_relaxed);
  return out;
}

Result<kb::GraphStatistics> Engine::GraphStats() const {
  auto snap = snapshot();
  if (!snap->has_graph()) return Status::InvalidArgument("no graph loaded");
  return *snap->stats;
}

std::shared_ptr<const Snapshot> Engine::Publish(
    std::shared_ptr<const core::ResolveResult> result,
    const core::ResolveOptions& result_options, bool graph_changed,
    const std::vector<std::string>* touched_predicates) {
  // The write is durable (WAL record fsynced) but not yet visible. A kill
  // here must recover it — the "acknowledged after fsync, published after
  // recovery" half of the durability contract.
  storage::MaybeCrash("engine:before_publish");
  static const auto stage_hist = obs::StageHistogram("publish");
  obs::ScopedTimer stage_timer(stage_hist);
  // The previous snapshot, read under its lock. Only the writer thread
  // (us) replaces it, so `prev` stays current for the whole publish; the
  // analysis used to have to take that argument on faith for a handful of
  // bare snapshot_ reads below.
  std::shared_ptr<const Snapshot> prev;
  {
    util::MutexLock lock(snapshot_mutex_);
    prev = snapshot_;
  }
  auto snap = std::make_shared<Snapshot>();
  snap->version = ++version_;
  if (!graph_.has_value()) {
    snap->predicates = std::make_shared<const std::vector<std::string>>();
  } else if (!graph_changed && prev->has_graph()) {
    // Rule-only write: the previous snapshot's frozen graph, statistics
    // and completion index are immutable and still describe the KB —
    // share them instead of paying a new fork under the writer lock.
    snap->graph = prev->graph;
    snap->num_terms = prev->num_terms;
    snap->stats = prev->stats;
    snap->predicates = prev->predicates;
  } else {
    // O(delta) publish: the fork copies the chunk table (pointers) only —
    // the columns themselves are shared with the writer and with earlier
    // retained versions until the writer mutates them. Statistics come
    // from the incremental accumulator (bit-identical to a from-scratch
    // ComputeStatistics by construction), so nothing here walks the graph.
    auto frozen = std::make_shared<rdf::TemporalGraph>(graph_->Clone());
    snap->graph = std::move(frozen);
    snap->num_terms = graph_->dict().Size();
    snap->stats = std::make_shared<const kb::GraphStatistics>(
        stats_acc_.Emit(*graph_));
    if (prev->has_graph() &&
        published_pred_set_epoch_ == graph_->pred_set_epoch()) {
      // No predicate appeared or lost its last live fact since the last
      // graph-bearing publish: the completion index is still exact.
      snap->predicates = prev->predicates;
      completion_reused_.fetch_add(1, std::memory_order_relaxed);
    } else {
      auto predicates = std::make_shared<std::vector<std::string>>();
      for (const auto& [pred, count] : graph_->PredicateCounts()) {
        if (count == 0) continue;  // all facts of this predicate retracted
        predicates->push_back(graph_->dict().Lookup(pred).lexical());
      }
      std::sort(predicates->begin(), predicates->end());
      snap->predicates = std::move(predicates);
      published_pred_set_epoch_ = graph_->pred_set_epoch();
      completion_rebuilt_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Rule writes are rare: every publish between two of them shares one
  // immutable copy of the rule set.
  if (published_rules_ == nullptr) {
    published_rules_ = std::make_shared<const rules::RuleSet>(rules_);
  }
  snap->rules = published_rules_;
  snap->result = std::move(result);
  snap->result_options = result_options;
  if (touched_predicates != nullptr) {
    // Publish the write's predicate footprint for filtered subscribers
    // (null stays null: unknown impact must match every filter).
    snap->touched =
        std::make_shared<const std::vector<std::string>>(*touched_predicates);
  }
  // Conflict carry-forward: when the caller knows which predicates this
  // write touched (and the rule set is unchanged — the caller's contract
  // for passing non-null), a cached conflict report survives the write iff
  // those predicates are disjoint from every predicate any rule can match:
  // no grounding gains or loses a matched fact, so the conflict set is
  // unchanged. Only the live-fact denominator needs patching; the conflict
  // lists themselves are shared with the prior report, not copied.
  if (touched_predicates != nullptr && graph_.has_value()) {
    std::shared_ptr<const core::ConflictReport> prior;
    {
      util::MutexLock lock(prev->conflict_mutex_);
      if (prev->conflict_status_.has_value() && prev->conflict_status_->ok()) {
        prior = prev->conflict_report_;
      }
    }
    std::vector<std::string> rule_predicates;
    if (prior != nullptr && CollectRulePredicates(rules_, &rule_predicates) &&
        SortedDisjoint(*touched_predicates, rule_predicates)) {
      auto carried = std::make_shared<core::ConflictReport>(*prior);
      carried->num_input_facts = graph_->NumLiveFacts();
      // `snap` is not shared yet, but its cache fields are guarded and
      // the lock is uncontended — cheaper than an analysis exemption.
      util::MutexLock lock(snap->conflict_mutex_);
      snap->conflict_report_ = std::move(carried);
      snap->conflict_status_ = Status::OK();
      conflict_carried_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  {
    util::MutexLock lock(snapshot_mutex_);
    snapshot_ = snap;
    retained_.push_back(snap);
    const size_t cap = std::max<size_t>(1, options_.retain_versions);
    while (retained_.size() > cap) retained_.pop_front();
  }
  // Notify observers on the writer thread, after the swap: snapshot() now
  // returns `snap`, and writer_mutex_ (held by our caller) serializes the
  // invocations, so every listener sees versions strictly in order.
  std::vector<PublishListener> listeners;
  {
    util::MutexLock lock(listener_mutex_);
    listeners.reserve(listeners_.size());
    for (const auto& [id, listener] : listeners_) listeners.push_back(listener);
  }
  for (const PublishListener& listener : listeners) listener(snap);
  return snap;
}

uint64_t Engine::AddPublishListener(PublishListener listener) {
  uint64_t id;
  {
    util::MutexLock lock(listener_mutex_);
    id = next_listener_id_++;
    if (!closed_) {
      listeners_.emplace(id, std::move(listener));
      return id;
    }
  }
  // Already retired: deliver the close signal inline (see header).
  listener(nullptr);
  return id;
}

void Engine::RemovePublishListener(uint64_t id) {
  util::MutexLock lock(listener_mutex_);
  listeners_.erase(id);
}

void Engine::CloseForListeners() {
  // Taking the writer lock orders the close signal after any in-flight
  // publish: a listener never sees a version after its nullptr.
  util::MutexLock write_lock(writer_mutex_);
  std::vector<PublishListener> listeners;
  {
    util::MutexLock lock(listener_mutex_);
    if (closed_) return;
    closed_ = true;
    listeners.reserve(listeners_.size());
    for (const auto& [id, listener] : listeners_) listeners.push_back(listener);
    listeners_.clear();
  }
  for (const PublishListener& listener : listeners) listener(nullptr);
}

Result<std::shared_ptr<const Snapshot>> Engine::LoadGraphFile(
    const std::string& path) {
  TECORE_ASSIGN_OR_RETURN(graph, rdf::LoadGraphFile(path));
  return SetGraph(std::move(graph));
}

Result<std::shared_ptr<const Snapshot>> Engine::LoadGraphText(
    std::string_view text) {
  TECORE_ASSIGN_OR_RETURN(graph, rdf::ParseGraphText(text));
  return SetGraph(std::move(graph));
}

Result<std::shared_ptr<const Snapshot>> Engine::SetGraph(
    rdf::TemporalGraph graph) {
  util::MutexLock lock(writer_mutex_);
  const std::shared_ptr<storage::KbStorage> stg = storage();
  if (stg != nullptr) {
    // A whole-graph load would dwarf the WAL, so it checkpoints directly.
    // Serialize the *incoming* graph before touching engine state: a
    // storage failure must leave the KB exactly as it was.
    storage::Checkpoint cp;
    cp.version = version_ + 1;
    cp.has_graph = true;
    cp.graph_text = rdf::WriteGraphText(graph);
    cp.rules_text = rules_.ToString();
    TECORE_RETURN_NOT_OK(stg->WriteCheckpoint(cp));
    // Edit scripts from before the load describe a graph that no longer
    // exists; resuming subscribers must resync from a snapshot.
    stg->ResetEditTail(cp.version);
  }
  graph_ = std::move(graph);
  incremental_.reset();
  AdoptGraphLocked();
  return Publish(nullptr, core::ResolveOptions(), /*graph_changed=*/true);
}

void Engine::AdoptGraphLocked() {
  if (!graph_.has_value()) {
    stats_acc_.Reset();
    return;
  }
  stats_acc_.SeedFrom(*graph_);
  // The observer outlives neither graph_ nor this engine: it is cleared on
  // every re-adoption and graph_ only mutates under writer_mutex_.
  graph_->SetMutationObserver(
      [this](const rdf::TemporalFact& fact, bool inserted) {
        if (inserted) {
          stats_acc_.OnInsert(fact);
        } else {
          stats_acc_.OnRetract(fact);
        }
      });
}

Result<Engine::RulesOutcome> Engine::AddRulesText(std::string_view text) {
  TECORE_ASSIGN_OR_RETURN(parsed, rules::ParseRules(text));
  TECORE_ASSIGN_OR_RETURN(snapshot, AddRules(parsed));
  return RulesOutcome{parsed.Size(), std::move(snapshot)};
}

Result<std::shared_ptr<const Snapshot>> Engine::AddRules(
    const rules::RuleSet& rules) {
  util::MutexLock lock(writer_mutex_);
  // Merge into a copy so a failed WAL append leaves rules_ untouched. The
  // log stores the full replacement set (rule writes are rare and rule
  // sets small), so replay just adopts the latest record.
  rules::RuleSet merged = rules_;
  merged.Merge(rules);
  TECORE_RETURN_NOT_OK(
      LogRecord(storage::WalRecordType::kRulesSet, merged.ToString()));
  rules_ = std::move(merged);
  published_rules_.reset();
  incremental_.reset();
  auto snap = Publish(nullptr, core::ResolveOptions(), /*graph_changed=*/false);
  MaybeCheckpoint();
  return snap;
}

Result<std::shared_ptr<const Snapshot>> Engine::ClearRules() {
  util::MutexLock lock(writer_mutex_);
  TECORE_RETURN_NOT_OK(
      LogRecord(storage::WalRecordType::kRulesSet, std::string()));
  rules_ = rules::RuleSet();
  published_rules_.reset();
  incremental_.reset();
  auto snap = Publish(nullptr, core::ResolveOptions(), /*graph_changed=*/false);
  MaybeCheckpoint();
  return snap;
}

Result<SolveOutcome> Engine::Solve(const core::ResolveOptions& options) {
  {
    auto snap = snapshot();
    if (snap->has_result() &&
        core::SameResolveConfig(snap->result_options, options)) {
      return SolveOutcome{snap->version, /*cached=*/true, snap->result, snap};
    }
  }
  util::MutexLock lock(writer_mutex_);
  if (!graph_.has_value()) return Status::InvalidArgument("no graph loaded");
  // Re-check: a competing writer may have solved while we waited.
  {
    auto snap = snapshot();
    if (snap->has_result() &&
        core::SameResolveConfig(snap->result_options, options)) {
      return SolveOutcome{snap->version, /*cached=*/true, snap->result, snap};
    }
  }
  incremental_ =
      std::make_unique<core::IncrementalResolver>(&*graph_, rules_, options);
  auto seeded = incremental_->Initialize();
  if (!seeded.ok()) {
    incremental_.reset();
    return seeded.status();
  }
  auto shared =
      std::make_shared<const core::ResolveResult>(std::move(*seeded));
  // The solve changed no durable content, but its publish consumes a
  // version — mark it so the counter survives a restart and versions are
  // never reused for different content.
  TECORE_RETURN_NOT_OK(
      LogRecord(storage::WalRecordType::kVersionMark, std::string()));
  // Solving never adds or retracts facts (grounding only interns terms
  // into the master dictionary), so the frozen graph is reusable — and
  // with zero touched predicates, so is a cached conflict report.
  static const std::vector<std::string> kNoTouched;
  auto snap = Publish(shared, options, /*graph_changed=*/false, &kNoTouched);
  MaybeCheckpoint();
  return SolveOutcome{snap->version, /*cached=*/false, std::move(shared),
                      std::move(snap)};
}

Result<EditOutcome> Engine::ApplyEdits(
    const std::vector<core::GraphEdit>& edits,
    const core::ResolveOptions& options) {
  util::MutexLock lock(writer_mutex_);
  return ApplyEditsLocked(edits, options);
}

Result<EditOutcome> Engine::ApplyEditScript(
    std::string_view script, const core::ResolveOptions& options) {
  util::MutexLock lock(writer_mutex_);
  if (!graph_.has_value()) return Status::InvalidArgument("no graph loaded");
  // Interns new terms into the master dictionary. Published snapshots
  // share that dictionary; it is append-only and interns concurrently, so
  // ids readers already hold never change.
  TECORE_ASSIGN_OR_RETURN(edits, core::ParseEditScript(script, &*graph_));
  return ApplyEditsLocked(edits, options);
}

Result<EditOutcome> Engine::ApplyEditsLocked(
    const std::vector<core::GraphEdit>& edits,
    const core::ResolveOptions& options) {
  if (!graph_.has_value()) return Status::InvalidArgument("no graph loaded");
  // Seed the incremental resolver first: seeding validates the rule set
  // for the requested solver, and an edit it rejects must never reach the
  // WAL (recovery would apply it under a version the client was told
  // failed).
  if (incremental_ != nullptr &&
      !core::SameResolveConfig(incremental_->options(), options)) {
    incremental_.reset();
  }
  if (incremental_ == nullptr) {
    incremental_ =
        std::make_unique<core::IncrementalResolver>(&*graph_, rules_, options);
    auto seeded = incremental_->Initialize();
    if (!seeded.ok()) {
      incremental_.reset();
      return seeded.status();
    }
  }
  if (storage() != nullptr) {
    // Write-ahead: validate, serialize canonically, log + fsync — all
    // before the graph mutates. A storage failure here changes nothing; a
    // crash after the append recovers exactly this batch.
    TECORE_RETURN_NOT_OK(core::ValidateGraphEdits(edits, *graph_));
    TECORE_RETURN_NOT_OK(LogRecord(storage::WalRecordType::kEditBatch,
                                   core::EditScriptToText(edits, *graph_)));
  }
  // Lexical names of every predicate this batch touches — the conflict
  // carry-forward key. Collected before application (the term ids are
  // already interned) and sorted for the disjointness merge in Publish.
  std::vector<std::string> touched;
  touched.reserve(edits.size());
  for (const core::GraphEdit& edit : edits) {
    touched.push_back(graph_->dict().Lookup(edit.fact.predicate).ToString());
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  const size_t live_before = graph_->NumLiveFacts();
  auto result = incremental_->ApplyEdits(edits);
  if (!result.ok()) return result.status();  // atomic: nothing published
  EditOutcome outcome;
  for (const core::GraphEdit& edit : edits) {
    if (edit.kind == core::GraphEdit::Kind::kInsert) ++outcome.applied.inserted;
  }
  outcome.applied.retracted =
      live_before + outcome.applied.inserted - graph_->NumLiveFacts();
  auto shared =
      std::make_shared<const core::ResolveResult>(std::move(*result));
  auto snap = Publish(shared, options, /*graph_changed=*/true, &touched);
  MaybeCheckpoint();
  outcome.version = snap->version;
  outcome.result = std::move(shared);
  outcome.snapshot = std::move(snap);
  return outcome;
}

// ------------------------------------------------------------- durability

Status Engine::AttachStorage(std::shared_ptr<storage::KbStorage> storage) {
  util::MutexLock lock(writer_mutex_);
  if (version_ != 0) {
    return Status::Internal("AttachStorage on an engine that already served");
  }
  const storage::Checkpoint cp = storage->checkpoint();
  uint64_t recovered = 0;
  if (storage->has_checkpoint()) {
    recovered = cp.version;
    if (cp.has_graph) {
      auto graph = rdf::ParseGraphText(cp.graph_text);
      if (!graph.ok()) {
        return Status::IoError("checkpoint graph in " + storage->dir() +
                               " unparseable: " + graph.status().message());
      }
      graph_ = std::move(*graph);
    }
    if (!cp.rules_text.empty()) {
      auto rules = rules::ParseRules(cp.rules_text);
      if (!rules.ok()) {
        return Status::IoError("checkpoint rules in " + storage->dir() +
                               " unparseable: " + rules.status().message());
      }
      rules_ = std::move(*rules);
    }
  }
  // Replay the WAL tail. Edits apply without solving — published results
  // are caches, and the determinism contract makes the next Solve
  // reproduce the pre-crash objective bit-for-bit.
  const std::vector<storage::WalRecord> tail = storage->tail();
  for (const storage::WalRecord& record : tail) {
    switch (record.type) {
      case storage::WalRecordType::kEditBatch: {
        if (!graph_.has_value()) {
          return Status::IoError("WAL in " + storage->dir() +
                                 " has an edit batch before any graph");
        }
        auto edits = core::ParseEditScript(record.payload, &*graph_);
        if (!edits.ok()) {
          return Status::IoError("WAL edit batch in " + storage->dir() +
                                 " unparseable: " + edits.status().message());
        }
        auto applied = core::ApplyGraphEdits(*edits, &*graph_);
        if (!applied.ok()) {
          return Status::IoError("WAL edit batch in " + storage->dir() +
                                 " unappliable: " +
                                 applied.status().message());
        }
        break;
      }
      case storage::WalRecordType::kRulesSet: {
        if (record.payload.empty()) {
          rules_ = rules::RuleSet();
          break;
        }
        auto rules = rules::ParseRules(record.payload);
        if (!rules.ok()) {
          return Status::IoError("WAL rule set in " + storage->dir() +
                                 " unparseable: " + rules.status().message());
        }
        rules_ = std::move(*rules);
        break;
      }
      case storage::WalRecordType::kVersionMark:
        break;
    }
    recovered = std::max(recovered, record.version);
  }
  published_rules_.reset();
  incremental_.reset();
  AdoptGraphLocked();
  {
    util::MutexLock storage_lock(storage_mutex_);
    storage_ = std::move(storage);
  }
  if (recovered > 0) {
    // Re-publish at the last durable version: Publish pre-increments, so
    // readers see exactly the version the pre-crash engine acknowledged.
    version_ = recovered - 1;
    Publish(nullptr, core::ResolveOptions(), /*graph_changed=*/true);
  }
  return Status::OK();
}

void Engine::DetachStorage() {
  util::MutexLock lock(writer_mutex_);
  std::shared_ptr<storage::KbStorage> storage;
  {
    util::MutexLock storage_lock(storage_mutex_);
    storage = std::move(storage_);
  }
  // Drop our reference with pending bytes flushed; the registry unlinks
  // the directory right after. Ignore flush errors — the files are about
  // to be destroyed.
  if (storage != nullptr) storage->Flush();
}

Status Engine::FlushStorage() {
  // The writer lock orders the flush after any in-flight write.
  util::MutexLock lock(writer_mutex_);
  const std::shared_ptr<storage::KbStorage> stg = storage();
  return stg != nullptr ? stg->Flush() : Status::OK();
}

std::shared_ptr<storage::KbStorage> Engine::storage() const {
  util::MutexLock lock(storage_mutex_);
  return storage_;
}

Status Engine::LogRecord(storage::WalRecordType type, std::string payload) {
  const std::shared_ptr<storage::KbStorage> stg = storage();
  if (stg == nullptr) return Status::OK();
  storage::WalRecord record;
  record.type = type;
  record.version = version_ + 1;
  record.payload = std::move(payload);
  return stg->Append(record);
}

storage::Checkpoint Engine::CheckpointState(uint64_t version) const {
  storage::Checkpoint cp;
  cp.version = version;
  cp.has_graph = graph_.has_value();
  if (graph_.has_value()) cp.graph_text = rdf::WriteGraphText(*graph_);
  cp.rules_text = rules_.ToString();
  return cp;
}

void Engine::MaybeCheckpoint() {
  const std::shared_ptr<storage::KbStorage> stg = storage();
  if (stg == nullptr || !stg->ShouldCheckpoint()) return;
  Status status = stg->WriteCheckpoint(CheckpointState(version_));
  if (!status.ok()) {
    // The triggering write is already durable in the WAL; a failed
    // checkpoint costs replay time, not data.
    std::fprintf(stderr, "tecore: checkpoint of %s failed: %s\n",
                 stg->dir().c_str(), status.ToString().c_str());
  }
}

}  // namespace api
}  // namespace tecore
