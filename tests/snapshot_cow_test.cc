// Differential proof of the copy-on-write snapshot publish: identical
// randomized edit scripts — inserts, retractions, rule changes and
// interleaved solves — drive an api::Engine (the COW world) and a
// deep-clone baseline world (rdf::TemporalGraph::DeepCopy, the pre-COW
// semantics). After every step the two worlds must agree
// bit-for-bit: canonical ground network bytes, objectives, kept/removed
// sets, statistics, conflict sets and the serialized graph. Retained
// snapshots must stay byte-stable while the writer moves on, and an edit
// of k facts must copy O(k) chunks, never O(graph).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "core/conflict.h"
#include "core/resolver.h"
#include "datagen/generators.h"
#include "ground/ground_network.h"
#include "ground/grounder.h"
#include "kb/statistics.h"
#include "rdf/graph.h"
#include "rdf/io.h"
#include "rules/library.h"
#include "util/random.h"
#include "util/string_util.h"

namespace tecore {
namespace {

/// Renders a network dictionary-independently: atoms by content (with
/// evidence flag and bit-exact prior), clauses by literal structure.
std::string RenderNetwork(const ground::GroundNetwork& net,
                          const rdf::Dictionary& dict) {
  std::string out;
  for (ground::AtomId id = 0; id < net.NumAtoms(); ++id) {
    const ground::GroundAtom& atom = net.atom(id);
    out += net.AtomToString(id, dict);
    out += StringPrintf(" prior=%s evid=%d\n",
                        FormatDoubleExact(atom.prior_weight).c_str(),
                        atom.is_evidence ? 1 : 0);
  }
  for (const ground::GroundClause& clause : net.clauses()) {
    out += clause.hard ? "hard" : "soft";
    out += StringPrintf(" w=%s rule=%d lits=",
                        FormatDoubleExact(clause.weight).c_str(),
                        clause.rule_index);
    for (int32_t lit : clause.literals) out += StringPrintf("%d,", lit);
    out += '\n';
  }
  return out;
}

/// Maps fact ids of a graph-with-tombstones to live ranks, so flip sets
/// compare against the compacted scratch world.
std::vector<rdf::FactId> ToLiveRanks(const rdf::TemporalGraph& graph,
                                     const std::vector<rdf::FactId>& ids) {
  std::vector<rdf::FactId> out;
  out.reserve(ids.size());
  for (rdf::FactId id : ids) {
    out.push_back(static_cast<rdf::FactId>(graph.LiveRank(id)));
  }
  return out;
}

/// Every statistics field rendered bit-exactly (doubles via
/// FormatDoubleExact), so two reports compare as one string.
std::string StatsToString(const kb::GraphStatistics& stats) {
  std::string out = StringPrintf(
      "facts=%zu subj=%zu pred=%zu obj=%zu mean_conf=%s min_t=%lld "
      "max_t=%lld mean_dur=%s\n",
      stats.num_facts, stats.num_distinct_subjects,
      stats.num_distinct_predicates, stats.num_distinct_objects,
      FormatDoubleExact(stats.mean_confidence).c_str(),
      static_cast<long long>(stats.min_time),
      static_cast<long long>(stats.max_time),
      FormatDoubleExact(stats.mean_interval_duration).c_str());
  for (const auto& entry : stats.predicate_counts) {
    out += StringPrintf("%s=%zu\n", entry.first.c_str(), entry.second);
  }
  for (size_t bin : stats.confidence_histogram) {
    out += StringPrintf("%zu,", bin);
  }
  out += '\n';
  return out;
}

/// Conflict sets rendered content-wise (fact ids differ between the COW
/// world and the compact baseline) and order-normalized.
std::string ConflictsToString(const core::ConflictReport& report,
                              const rdf::TemporalGraph& graph) {
  std::vector<std::string> conflicts;
  for (const core::Conflict& conflict : report.conflicts()) {
    std::vector<std::string> facts;
    for (rdf::FactId id : conflict.facts) {
      facts.push_back(graph.FactToString(id));
    }
    std::sort(facts.begin(), facts.end());
    std::string line = StringPrintf("rule=%d:", conflict.rule_index);
    for (const std::string& fact : facts) line += " " + fact;
    conflicts.push_back(std::move(line));
  }
  std::sort(conflicts.begin(), conflicts.end());
  std::vector<std::string> in_conflict;
  for (rdf::FactId id : report.conflicting_facts()) {
    in_conflict.push_back(graph.FactToString(id));
  }
  std::sort(in_conflict.begin(), in_conflict.end());
  std::string out = StringPrintf("input=%zu\n", report.num_input_facts);
  for (const std::string& line : conflicts) out += line + "\n";
  out += "facts:";
  for (const std::string& fact : in_conflict) out += " " + fact;
  out += "\nper_rule:";
  for (size_t count : report.per_rule_counts()) {
    out += StringPrintf("%zu,", count);
  }
  out += '\n';
  return out;
}

/// From-scratch reference on the edited KB (compacted copy, so tombstones
/// cannot leak into the reference path).
core::ResolveResult ScratchResolve(const rdf::TemporalGraph& graph,
                                   const rules::RuleSet& rules,
                                   const core::ResolveOptions& options) {
  rdf::TemporalGraph compact = graph.CompactLive();
  core::Resolver resolver(&compact, rules, options);
  auto result = resolver.Run();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

/// The from-scratch canonical network on the edited KB, rendered.
std::string ScratchNetworkRendering(const rdf::TemporalGraph& graph,
                                    const rules::RuleSet& rules,
                                    const ground::GroundingOptions& options) {
  rdf::TemporalGraph compact = graph.CompactLive();
  ground::GroundingOptions grounding = options;
  ground::Grounder grounder(&compact, rules, grounding);
  auto result = grounder.Run();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return RenderNetwork(result->network, compact.dict());
}

void ExpectInvariantsOk(const rdf::TemporalGraph& graph) {
  Status invariants = graph.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();
}

TEST(SnapshotCowDifferential, RandomizedScriptsMatchDeepCloneBaseline) {
  // An engine (the COW world) consumes edit scripts; a baseline
  // rdf::TemporalGraph applies the same edits and is DeepCopy'd at every
  // step (the deep-clone world). The two must agree bit-for-bit after
  // every step.
  datagen::FootballDbOptions gen;
  gen.num_players = 40;
  gen.num_teams = 8;
  datagen::GeneratedKg kg = datagen::GenerateFootballDb(gen);
  const std::string base_text = rdf::WriteGraphText(kg.graph);

  auto constraints = rules::FootballConstraints();
  ASSERT_TRUE(constraints.ok());
  auto inference = rules::FootballInferenceRules();
  ASSERT_TRUE(inference.ok());

  api::Engine::Options engine_options;
  engine_options.retain_versions = 4;
  api::Engine engine(engine_options);
  const core::ResolveOptions options;
  ASSERT_TRUE(engine.LoadGraphText(base_text).ok());
  ASSERT_TRUE(engine.AddRules(*constraints).ok());
  std::shared_ptr<const api::Snapshot> prev_snapshot;
  /// Serialized graph bytes captured the moment each version published.
  std::map<uint64_t, std::string> bytes_at_publish;

  // The deep-clone baseline world.
  auto parsed = rdf::ParseGraphText(base_text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  rdf::TemporalGraph baseline = std::move(*parsed);
  rules::RuleSet baseline_rules = *constraints;

  // Live fact lines (the ".tq" body without " .") with their baseline fact
  // ids — the pool retraction ops draw from.
  std::vector<std::pair<std::string, rdf::FactId>> live_lines;
  for (rdf::FactId id = 0; id < baseline.NumFacts(); ++id) {
    live_lines.emplace_back(rdf::WriteFactText(baseline, baseline.fact(id)),
                            id);
  }

  Rng rng(20260808);
  uint64_t serial = 0;
  for (int step = 0; step < 5; ++step) {
    SCOPED_TRACE(step);
    if (step == 2) {
      // Rule change mid-script: inference rules join the constraint set.
      ASSERT_TRUE(engine.AddRules(*inference).ok());
      baseline_rules.Merge(*inference);
    }

    // Build one textual edit batch, applied verbatim to every world.
    std::string script;
    std::vector<std::string> insert_lines;
    const size_t num_inserts = 1 + rng.Uniform(3);
    for (size_t i = 0; i < num_inserts; ++i) {
      const int64_t begin = 1990 + static_cast<int64_t>(rng.Uniform(25));
      // The serial in the object makes every inserted line unique while
      // the shared player subject keeps mutual-exclusion conflicts likely.
      const double conf = static_cast<double>(1 + rng.Uniform(255)) / 256.0;
      const std::string line = StringPrintf(
          "player%llu playsFor team%llu_n%llu [%lld,%lld] %s",
          static_cast<unsigned long long>(rng.Uniform(40)),
          static_cast<unsigned long long>(rng.Uniform(8)),
          static_cast<unsigned long long>(serial++),
          static_cast<long long>(begin),
          static_cast<long long>(begin + static_cast<int64_t>(
                                             rng.Uniform(6))),
          FormatDoubleExact(conf).c_str());
      script += "+ " + line + " .\n";
      insert_lines.push_back(line);
    }
    std::vector<rdf::FactId> retract_ids;
    const size_t num_retracts = rng.Uniform(3);
    for (size_t i = 0; i < num_retracts && !live_lines.empty(); ++i) {
      const size_t pick = static_cast<size_t>(rng.Uniform(live_lines.size()));
      const std::string& line = live_lines[pick].first;
      // Retract-by-quad picks the lowest-id live match; only retract lines
      // whose text is unique so both worlds retract the same instance.
      size_t copies = 0;
      for (const auto& entry : live_lines) {
        if (entry.first == line) ++copies;
      }
      if (copies != 1) continue;
      script += "- " + line + " .\n";
      retract_ids.push_back(live_lines[pick].second);
      live_lines.erase(live_lines.begin() + static_cast<ptrdiff_t>(pick));
    }

    // COW world: one atomic script application.
    auto applied = engine.ApplyEditScript(script, options);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    const api::EditOutcome& outcome = *applied;

    // Baseline world: the same edits, then a deep clone (the pre-COW
    // publish semantics) that all references are computed against.
    for (const std::string& line : insert_lines) {
      auto id = rdf::ParseFactLine(line + " .", &baseline);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      live_lines.emplace_back(line, *id);
    }
    for (rdf::FactId id : retract_ids) {
      ASSERT_TRUE(baseline.Retract(id).ok());
    }
    rdf::TemporalGraph deep = baseline.DeepCopy();
    ExpectInvariantsOk(deep);
    ExpectInvariantsOk(baseline);

    const core::ResolveResult scratch =
        ScratchResolve(deep, baseline_rules, core::ResolveOptions());
    const std::string scratch_net = ScratchNetworkRendering(
        deep, baseline_rules, ground::GroundingOptions());
    const std::string scratch_stats = StatsToString(kb::ComputeStatistics(deep));
    const std::string scratch_bytes = rdf::WriteGraphText(deep);
    core::ConflictDetector detector(&deep, baseline_rules);
    auto scratch_report = detector.Detect();
    ASSERT_TRUE(scratch_report.ok()) << scratch_report.status().ToString();
    const std::string scratch_conflicts =
        ConflictsToString(*scratch_report, deep);

    auto snap = engine.snapshot();
    ASSERT_EQ(snap->version, outcome.version);

    // Resolution bit-identical to the deep-clone scratch reference.
    EXPECT_EQ(outcome.result->objective, scratch.objective);  // bitwise
    EXPECT_EQ(outcome.result->feasible, scratch.feasible);
    EXPECT_EQ(outcome.result->optimal, scratch.optimal);
    EXPECT_EQ(outcome.result->ground_atoms, scratch.ground_atoms);
    EXPECT_EQ(outcome.result->ground_clauses, scratch.ground_clauses);
    EXPECT_EQ(outcome.result->num_components, scratch.num_components);
    EXPECT_EQ(ToLiveRanks(*snap->graph, outcome.result->kept_facts),
              scratch.kept_facts);
    EXPECT_EQ(ToLiveRanks(*snap->graph, outcome.result->removed_facts),
              scratch.removed_facts);

    // The maintained canonical network, byte-for-byte.
    ASSERT_NE(engine.incremental_for_tests(), nullptr);
    EXPECT_EQ(RenderNetwork(engine.incremental_for_tests()->network(),
                            engine.graph_for_tests()->dict()),
              scratch_net);

    // Published statistics and conflict sets match from-scratch ones.
    ASSERT_NE(snap->stats, nullptr);
    EXPECT_EQ(StatsToString(*snap->stats), scratch_stats);
    auto report = snap->DetectConflicts();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(ConflictsToString(**report, *snap->graph), scratch_conflicts);

    // The snapshot graph serializes to the same bytes as the deep clone.
    EXPECT_EQ(rdf::WriteGraphText(*snap->graph), scratch_bytes);
    bytes_at_publish[snap->version] = scratch_bytes;

    // Chunk-sharing invariants: the snapshot shares every chunk with the
    // writer until the next mutation, and both self-check clean.
    ExpectInvariantsOk(*snap->graph);
    ExpectInvariantsOk(*engine.graph_for_tests());
    EXPECT_EQ(rdf::TemporalGraph::CountSharedChunks(
                  *snap->graph, *engine.graph_for_tests()),
              snap->graph->NumChunks());

    // A later version never resurrects a retracted fact.
    if (prev_snapshot != nullptr && prev_snapshot->has_graph()) {
      Status monotone = rdf::TemporalGraph::CheckTombstoneMonotone(
          *prev_snapshot->graph, *snap->graph);
      EXPECT_TRUE(monotone.ok()) << monotone.ToString();
    }
    prev_snapshot = snap;

    // Interleaved solve: equal options must serve the published result
    // from the snapshot cache, still matching the scratch objective.
    if (step % 2 == 1) {
      auto solved = engine.Solve(options);
      ASSERT_TRUE(solved.ok()) << solved.status().ToString();
      EXPECT_TRUE(solved->cached);
      EXPECT_EQ(solved->result->objective, scratch.objective);
    }
  }

  // Retained snapshots stay byte-stable after all the later edits, and the
  // ring answers out-of-range versions with the documented statuses.
  const auto range = engine.RetainedRange();
  EXPECT_EQ(range.second, engine.version());
  for (uint64_t v = range.first; v <= range.second; ++v) {
    auto snap = engine.SnapshotAt(v);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    if (!(*snap)->has_graph()) continue;
    auto recorded = bytes_at_publish.find(v);
    if (recorded == bytes_at_publish.end()) continue;
    EXPECT_EQ(rdf::WriteGraphText(*(*snap)->graph), recorded->second)
        << "retained version " << v << " mutated after publish";
  }
  auto future = engine.SnapshotAt(engine.version() + 5);
  EXPECT_EQ(future.status().code(), StatusCode::kNotFound);
  ASSERT_GT(range.first, 1u);  // enough publishes to evict version 1
  auto evicted = engine.SnapshotAt(1);
  EXPECT_EQ(evicted.status().code(), StatusCode::kGone);
}

TEST(SnapshotCowDifferential, EditOfKFactsCopiesOKChunks) {
  // Publish economics: with a ~20-chunk graph, a single-fact edit must
  // copy-on-write at most the chunks it touches (the appended tail and the
  // retracted fact's chunk), never O(#chunks) — the O(delta) claim.
  constexpr size_t kChunk = rdf::TemporalGraph::kChunkSize;
  rdf::TemporalGraph big;
  const size_t num_facts = 20 * kChunk + 100;
  for (size_t i = 0; i < num_facts; ++i) {
    const int64_t begin = static_cast<int64_t>(i % 50);
    auto added = big.AddQuad(
        "s" + std::to_string(i % 977), "p" + std::to_string(i % 7),
        "o" + std::to_string(i), temporal::Interval(begin, begin + 3), 0.5);
    ASSERT_TRUE(added.ok());
  }
  api::Engine engine;
  ASSERT_TRUE(engine.SetGraph(std::move(big)).ok());
  const rdf::TemporalGraph* writer = engine.graph_for_tests();
  ASSERT_NE(writer, nullptr);
  auto snap1 = engine.snapshot();
  const size_t num_chunks = snap1->graph->NumChunks();
  ASSERT_GE(num_chunks, 20u);
  EXPECT_EQ(rdf::TemporalGraph::CountSharedChunks(*snap1->graph, *writer),
            num_chunks);

  // One inserted fact: only the tail chunk is copied.
  const uint64_t before_insert = writer->chunk_copies();
  core::ResolveOptions options;
  ASSERT_TRUE(
      engine.ApplyEditScript("+ sX pY oZ [1,2] 0.5 .\n", options).ok());
  EXPECT_LE(writer->chunk_copies() - before_insert, 1u);
  auto snap2 = engine.snapshot();
  EXPECT_GE(rdf::TemporalGraph::CountSharedChunks(*snap1->graph,
                                                  *snap2->graph),
            num_chunks - 1);

  // k retractions spread across the graph: at most k interior chunks (plus
  // nothing else) get copied, and sharing with the previous snapshot drops
  // by at most k.
  std::string script;
  const size_t k = 5;
  for (size_t j = 0; j < k; ++j) {
    const size_t i = j * 4 * kChunk + j;  // one fact per distant chunk
    const int64_t begin = static_cast<int64_t>(i % 50);
    script += StringPrintf("- s%zu p%zu o%zu [%lld,%lld] 0.5 .\n", i % 977,
                           i % 7, i, static_cast<long long>(begin),
                           static_cast<long long>(begin + 3));
  }
  const uint64_t before_retracts = writer->chunk_copies();
  ASSERT_TRUE(engine.ApplyEditScript(script, options).ok());
  EXPECT_LE(writer->chunk_copies() - before_retracts, k);
  auto snap3 = engine.snapshot();
  EXPECT_GE(rdf::TemporalGraph::CountSharedChunks(*snap2->graph,
                                                  *snap3->graph),
            snap2->graph->NumChunks() - k);

  ExpectInvariantsOk(*writer);
  ExpectInvariantsOk(*snap3->graph);
  Status monotone = rdf::TemporalGraph::CheckTombstoneMonotone(
      *snap1->graph, *snap3->graph);
  EXPECT_TRUE(monotone.ok()) << monotone.ToString();

  // A result-only publish (re-solve under different options) reuses the
  // frozen graph outright — same object, zero chunks copied.
  core::ResolveOptions threshold = options;
  threshold.derived_threshold = 0.25;
  const uint64_t before_solve = writer->chunk_copies();
  auto solved = engine.Solve(threshold);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_FALSE(solved->cached);
  EXPECT_EQ(engine.snapshot()->graph, snap3->graph);
  EXPECT_EQ(writer->chunk_copies(), before_solve);
}

}  // namespace
}  // namespace tecore
