// Concurrency stress for the service API: N reader threads hammer
// snapshot-based reads (the /v1 read endpoints' backing calls) while a
// writer applies randomized edit batches. Every read must observe a
// self-consistent (version, graph, stats, result) tuple, versions must be
// monotone per reader, and the final published result must be
// bit-identical to a from-scratch resolve of the edited KB — the
// determinism contract extended to concurrent traffic.
//
// Run under TSan (cmake -DTECORE_SANITIZE=thread) to audit the
// single-writer/many-reader claims, or ASan where TSan is unavailable.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "core/resolver.h"
#include "datagen/generators.h"
#include "rules/library.h"
#include "util/random.h"
#include "util/string_util.h"

namespace tecore {
namespace {

/// Deterministic insert line for batch `b`, slot `i`.
std::string InsertLine(size_t b, size_t i) {
  const size_t player = (b * 37 + i * 11) % 60;
  const size_t team = (b * 13 + i * 7) % 8;
  const int64_t begin = 1995 + static_cast<int64_t>((b + i) % 20);
  return StringPrintf("+ player%zu playsFor team%zu [%lld,%lld] 0.%zu%zu .\n",
                      player, team, static_cast<long long>(begin),
                      static_cast<long long>(begin + 3), 3 + b % 6, 1 + i % 9);
}

/// The matching retraction for InsertLine(b, i).
std::string RetractLine(size_t b, size_t i) {
  std::string line = InsertLine(b, i);
  line[0] = '-';
  return line;
}

TEST(ApiConcurrency, ReadersObserveConsistentSnapshotsUnderEdits) {
  api::Engine engine;
  datagen::FootballDbOptions gen;
  gen.num_players = 60;
  engine.SetGraph(std::move(datagen::GenerateFootballDb(gen).graph));
  auto constraints = rules::FootballConstraints();
  ASSERT_TRUE(constraints.ok());
  engine.AddRules(*constraints);

  const core::ResolveOptions options;  // MLN defaults
  auto seeded = engine.Solve(options);
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();

  constexpr size_t kBatches = 10;
  constexpr int kReaders = 4;
  std::atomic<bool> done{false};
  std::atomic<int> reader_failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&engine, &done, &reader_failures, r] {
      uint64_t last_version = 0;
      size_t iterations = 0;
      while (!done.load(std::memory_order_acquire) || iterations < 3) {
        ++iterations;
        auto snap = engine.snapshot();
        // Versions are monotone from any single reader's point of view.
        if (snap->version < last_version) {
          ++reader_failures;
          break;
        }
        last_version = snap->version;
        if (!snap->has_graph()) continue;
        // Stats were computed from exactly this graph: a torn publish
        // would break the equality.
        if (snap->stats->num_facts != snap->graph->NumLiveFacts()) {
          ++reader_failures;
          break;
        }
        // A published result partitions exactly this snapshot's live
        // facts into kept and removed.
        if (snap->has_result() &&
            snap->result->kept_facts.size() +
                    snap->result->removed_facts.size() !=
                snap->graph->NumLiveFacts()) {
          ++reader_failures;
          break;
        }
        // Completion data is frozen with the snapshot.
        if (snap->CompletePredicate("plays").empty()) {
          ++reader_failures;
          break;
        }
        // Browse: rendering facts only reads the frozen graph.
        if (snap->has_result() && !snap->result->kept_facts.empty()) {
          (void)snap->graph->FactToString(snap->result->kept_facts[0]);
        }
        // Occasionally run full conflict detection against the frozen
        // snapshot (interns into the shared dictionary concurrently).
        if (iterations % 7 == static_cast<size_t>(r) % 7) {
          auto report = snap->DetectConflicts();
          if (!report.ok()) {
            ++reader_failures;
            break;
          }
        }
        // The frozen chunked columnar store must self-check clean even
        // while the writer copy-on-writes chunks out from under it.
        if (iterations % 5 == static_cast<size_t>(r) % 5 &&
            !snap->graph->CheckInvariants().ok()) {
          ++reader_failures;
          break;
        }
      }
    });
  }

  // The single writer: randomized-but-deterministic insert/retract
  // batches, each re-solved incrementally and published atomically.
  uint64_t version_before = engine.version();
  std::shared_ptr<const api::Snapshot> prev_published = engine.snapshot();
  for (size_t b = 0; b < kBatches; ++b) {
    std::string script = InsertLine(b, 0) + InsertLine(b, 1);
    if (b >= 2) script += RetractLine(b - 2, 0);  // retract an old insert
    auto outcome = engine.ApplyEditScript(script, options);
    ASSERT_TRUE(outcome.ok()) << "batch " << b << ": "
                              << outcome.status().ToString();
    EXPECT_GT(outcome->version, version_before);
    version_before = outcome->version;
    EXPECT_EQ(outcome->applied.inserted, 2u);
    // COW economics under live readers: each <=3-fact batch may copy at
    // most the chunks it touched, so consecutive published snapshots keep
    // sharing all but a handful of chunks.
    Status invariants = engine.graph_for_tests()->CheckInvariants();
    ASSERT_TRUE(invariants.ok()) << invariants.ToString();
    EXPECT_GE(rdf::TemporalGraph::CountSharedChunks(
                  *prev_published->graph, *outcome->snapshot->graph) + 4,
              prev_published->graph->NumChunks());
    prev_published = outcome->snapshot;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(reader_failures.load(), 0);

  // Final state must be bit-identical to a from-scratch resolve of the
  // edited KB.
  auto final_snap = engine.snapshot();
  ASSERT_TRUE(final_snap->has_result());
  const core::ResolveResult& incremental = *final_snap->result;
  rdf::TemporalGraph compact = final_snap->graph->CompactLive();
  core::Resolver resolver(&compact, *final_snap->rules, options);
  auto scratch = resolver.Run();
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  EXPECT_EQ(incremental.objective, scratch->objective);  // bitwise
  EXPECT_EQ(incremental.feasible, scratch->feasible);
  EXPECT_EQ(incremental.ground_atoms, scratch->ground_atoms);
  EXPECT_EQ(incremental.ground_clauses, scratch->ground_clauses);
  EXPECT_EQ(incremental.num_components, scratch->num_components);
  // Flip sets compare via live ranks (scratch ids are compacted).
  auto to_ranks = [&](const std::vector<rdf::FactId>& ids) {
    std::vector<rdf::FactId> out;
    out.reserve(ids.size());
    for (rdf::FactId id : ids) {
      out.push_back(static_cast<rdf::FactId>(final_snap->graph->LiveRank(id)));
    }
    return out;
  };
  EXPECT_EQ(to_ranks(incremental.kept_facts), scratch->kept_facts);
  EXPECT_EQ(to_ranks(incremental.removed_facts), scratch->removed_facts);
  ASSERT_EQ(incremental.derived_facts.size(), scratch->derived_facts.size());
  for (size_t i = 0; i < incremental.derived_facts.size(); ++i) {
    EXPECT_EQ(incremental.derived_facts[i].score,
              scratch->derived_facts[i].score);  // bitwise
  }
}

TEST(ApiConcurrency, ConcurrentCachedSolvesShareOneResult) {
  api::Engine engine;
  ASSERT_TRUE(engine.LoadGraphText(R"(
    CR coach Chelsea [2000,2004] 0.9 .
    CR coach Napoli [2001,2003] 0.6 .
  )")
                  .ok());
  ASSERT_TRUE(engine
                  .AddRulesText(
                      "c2: quad(x, coach, y, t) & quad(x, coach, z, t') "
                      "& y != z -> disjoint(t, t') .")
                  .ok());
  const core::ResolveOptions options;
  auto first = engine.Solve(options);
  ASSERT_TRUE(first.ok());

  // Many threads hitting the cache concurrently get the same object and
  // the same version — no re-solve, no torn (version, result) pair.
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        auto outcome = engine.Solve(options);
        if (!outcome.ok() || !outcome->cached ||
            outcome->result.get() != first->result.get() ||
            outcome->version != first->version) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace tecore
