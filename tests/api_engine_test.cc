// api::Engine semantics: snapshot isolation, monotone versions, solve
// caching, edit atomicity — the single-writer/many-reader contract the
// CLI, the examples and tecore-server all ride on.

#include "api/engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/types.h"
#include "core/resolver.h"
#include "rules/library.h"
#include "util/json.h"
#include "util/string_util.h"

namespace tecore {
namespace {

constexpr char kFig1Utkg[] = R"(
  CR coach Chelsea [2000,2004] 0.9 .
  CR coach Leicester [2015,2017] 0.7 .
  CR playsFor Palermo [1984,1986] 0.5 .
  CR birthDate 1951 [1951,2017] 1.0 .
  CR coach Napoli [2001,2003] 0.6 .
)";

constexpr char kDisjointConstraint[] =
    "c2: quad(x, coach, y, t) & quad(x, coach, z, t') & y != z "
    "-> disjoint(t, t') .";

TEST(ApiEngine, PristineSnapshotIsVersionZero) {
  api::Engine engine;
  auto snap = engine.snapshot();
  EXPECT_EQ(snap->version, 0u);
  EXPECT_FALSE(snap->has_graph());
  EXPECT_FALSE(snap->has_result());
  EXPECT_TRUE(snap->rules->Empty());
  EXPECT_TRUE(snap->CompletePredicate("").empty());
  EXPECT_FALSE(engine.GraphStats().ok());
  EXPECT_FALSE(engine.Solve(core::ResolveOptions()).ok());
  EXPECT_FALSE(
      engine.ApplyEditScript("+ a p b [1,2] .", core::ResolveOptions()).ok());
  EXPECT_FALSE(snap->DetectConflicts().ok());
  EXPECT_FALSE(snap->MineConstraints().ok());
}

TEST(ApiEngine, WritesBumpVersionMonotonically) {
  api::Engine engine;
  ASSERT_TRUE(engine.LoadGraphText(kFig1Utkg).ok());
  EXPECT_EQ(engine.version(), 1u);
  ASSERT_TRUE(engine.AddRulesText(kDisjointConstraint).ok());
  EXPECT_EQ(engine.version(), 2u);
  auto solved = engine.Solve(core::ResolveOptions());
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_EQ(solved->version, 3u);
  EXPECT_FALSE(solved->cached);
  auto edited = engine.ApplyEditScript("+ CR coach Bari [2006,2008] 0.5 .",
                                       core::ResolveOptions());
  ASSERT_TRUE(edited.ok()) << edited.status().ToString();
  EXPECT_EQ(edited->version, 4u);
  EXPECT_EQ(engine.version(), 4u);
}

TEST(ApiEngine, SolveIsCachedUntilInvalidated) {
  api::Engine engine;
  ASSERT_TRUE(engine.LoadGraphText(kFig1Utkg).ok());
  ASSERT_TRUE(engine.AddRulesText(kDisjointConstraint).ok());
  core::ResolveOptions options;
  auto first = engine.Solve(options);
  ASSERT_TRUE(first.ok());
  auto second = engine.Solve(options);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cached);
  EXPECT_EQ(second->version, first->version);
  EXPECT_EQ(second->result.get(), first->result.get());  // same object

  // A result-relevant change misses the cache.
  core::ResolveOptions psl = options;
  psl.solver = rules::SolverKind::kPsl;
  auto third = engine.Solve(psl);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->cached);
  EXPECT_GT(third->version, first->version);

  // Rule edits invalidate the cached result; the returned snapshot is
  // the publish this write produced.
  auto cleared = engine.ClearRules();
  ASSERT_TRUE(cleared.ok());
  EXPECT_FALSE((*cleared)->has_result());
  EXPECT_TRUE((*cleared)->rules->Empty());
  EXPECT_FALSE(engine.snapshot()->has_result());
}

TEST(ApiEngine, SnapshotsAreImmutableUnderLaterWrites) {
  api::Engine engine;
  ASSERT_TRUE(engine.LoadGraphText(kFig1Utkg).ok());
  ASSERT_TRUE(engine.AddRulesText(kDisjointConstraint).ok());
  auto solved = engine.Solve(core::ResolveOptions());
  ASSERT_TRUE(solved.ok());
  auto old_snap = engine.snapshot();
  const size_t old_live = old_snap->graph->NumLiveFacts();
  const uint64_t old_version = old_snap->version;
  const auto* old_result = old_snap->result.get();

  auto edited = engine.ApplyEditScript(
      "+ CR coach Bari [2006,2008] 0.5 .\n"
      "- CR coach Napoli [2001,2003] .\n",
      core::ResolveOptions());
  ASSERT_TRUE(edited.ok()) << edited.status().ToString();
  EXPECT_EQ(edited->applied.inserted, 1u);
  EXPECT_EQ(edited->applied.retracted, 1u);

  // The old snapshot is untouched: same version, graph and result.
  EXPECT_EQ(old_snap->version, old_version);
  EXPECT_EQ(old_snap->graph->NumLiveFacts(), old_live);
  EXPECT_EQ(old_snap->result.get(), old_result);
  // And the new one reflects the edit.
  auto new_snap = engine.snapshot();
  EXPECT_EQ(new_snap->graph->NumLiveFacts(), old_live);  // +1 -1
  EXPECT_NE(new_snap->result.get(), old_result);
  EXPECT_GT(new_snap->version, old_version);
}

TEST(ApiEngine, RuleOnlyWritesShareTheFrozenGraph) {
  api::Engine engine;
  ASSERT_TRUE(engine.LoadGraphText(kFig1Utkg).ok());
  auto loaded = engine.snapshot();
  // Rule writes and solves don't touch the graph: their snapshots share
  // the frozen clone instead of paying an O(graph) republish.
  auto with_rules = engine.AddRulesText(kDisjointConstraint);
  ASSERT_TRUE(with_rules.ok());
  EXPECT_EQ(with_rules->snapshot->graph.get(), loaded->graph.get());
  EXPECT_EQ(with_rules->snapshot->stats.get(), loaded->stats.get());
  EXPECT_EQ(with_rules->snapshot->predicates.get(),
            loaded->predicates.get());
  auto solved = engine.Solve(core::ResolveOptions());
  ASSERT_TRUE(solved.ok());
  EXPECT_EQ(solved->snapshot->graph.get(), loaded->graph.get());
  // Edits do touch the graph: a fresh clone is published.
  auto edited = engine.ApplyEditScript("+ CR coach Bari [2006,2008] 0.5 .",
                                       core::ResolveOptions());
  ASSERT_TRUE(edited.ok());
  EXPECT_NE(edited->snapshot->graph.get(), loaded->graph.get());
}

TEST(ApiEngine, FailedEditBatchPublishesNothing) {
  api::Engine engine;
  ASSERT_TRUE(engine.LoadGraphText(kFig1Utkg).ok());
  ASSERT_TRUE(engine.AddRulesText(kDisjointConstraint).ok());
  const uint64_t version = engine.version();
  auto bad = engine.ApplyEditScript(
      "+ CR coach Bari [2006,2008] 0.5 .\n"
      "- no such fact [1,2] .\n",
      core::ResolveOptions());
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(engine.version(), version);
  EXPECT_EQ(engine.snapshot()->graph->NumLiveFacts(), 5u);
}

TEST(ApiEngine, RefusedEditsGroundingLimitDoesNotStick) {
  api::Engine engine;
  ASSERT_TRUE(engine.LoadGraphText(kFig1Utkg).ok());
  ASSERT_TRUE(engine.AddRulesText(kDisjointConstraint).ok());
  core::ResolveOptions tight;
  tight.grounding.max_atoms = 6;  // the network has 5 atoms
  ASSERT_TRUE(engine.Solve(tight).ok());
  auto refused = engine.ApplyEditScript(
      "+ CR coach Bari [2006,2008] 0.5 .\n"
      "+ CR coach Roma [2009,2010] 0.5 .\n",
      tight);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kOutOfRange);
  // The next edit under the default limits must not run on the resolver
  // grounded under the tight one. (The refused facts themselves are still
  // applied to the graph and published with this edit, so the fact count
  // is not asserted here.)
  auto next = engine.ApplyEditScript("+ CR coach Genoa [2011,2012] 0.5 .",
                                     core::ResolveOptions());
  EXPECT_TRUE(next.ok()) << next.status().ToString();
}

TEST(ApiEngine, ConflictReportIsCachedPerSnapshot) {
  api::Engine engine;
  ASSERT_TRUE(engine.LoadGraphText(kFig1Utkg).ok());
  ASSERT_TRUE(engine.AddRulesText(kDisjointConstraint).ok());
  auto snap = engine.snapshot();
  auto first = snap->DetectConflicts();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ((*first)->NumConflicts(), 1u);
  auto second = snap->DetectConflicts();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // compute-once
}

TEST(ApiEngine, CompletionIsSortedAndPrefixFiltered) {
  api::Engine engine;
  ASSERT_TRUE(engine.LoadGraphText(kFig1Utkg).ok());
  auto snap = engine.snapshot();
  EXPECT_EQ(snap->CompletePredicate("coa"),
            std::vector<std::string>({"coach"}));
  EXPECT_TRUE(snap->CompletePredicate("CR").empty());  // subject, not pred
  auto all = snap->CompletePredicate("");
  EXPECT_EQ(all, std::vector<std::string>(
                     {"birthDate", "coach", "playsFor"}));
}

TEST(ApiEngine, ResultAndSnapshotGraphShareFactIds) {
  api::Engine engine;
  ASSERT_TRUE(engine.LoadGraphText(kFig1Utkg).ok());
  ASSERT_TRUE(engine.AddRulesText(kDisjointConstraint).ok());
  auto solved = engine.Solve(core::ResolveOptions());
  ASSERT_TRUE(solved.ok());
  ASSERT_EQ(solved->result->removed_facts.size(), 1u);
  // The removed fact renders against the outcome's snapshot graph.
  const std::string rendered = solved->snapshot->graph->FactToString(
      solved->result->removed_facts[0]);
  EXPECT_NE(rendered.find("Napoli"), std::string::npos) << rendered;
  // kept + removed partition the snapshot's live facts.
  EXPECT_EQ(solved->result->kept_facts.size() +
                solved->result->removed_facts.size(),
            solved->snapshot->graph->NumLiveFacts());
}

TEST(ApiEngine, DtoJsonShapes) {
  api::Engine engine;
  ASSERT_TRUE(engine.LoadGraphText(kFig1Utkg).ok());
  ASSERT_TRUE(engine.AddRulesText(kDisjointConstraint).ok());
  auto snap = engine.snapshot();

  util::Json info = api::GraphInfoJson(*snap);
  EXPECT_EQ(info.GetInt("version", -1), 2);
  EXPECT_EQ(info.GetInt("num_facts", -1), 5);
  EXPECT_TRUE(info.GetBool("has_graph", false));

  util::Json stats = api::StatsJson(*snap);
  ASSERT_NE(stats.Find("stats"), nullptr);
  EXPECT_EQ(stats.Find("stats")->GetInt("num_facts", -1), 5);

  util::Json rules = api::RulesJson(*snap);
  EXPECT_EQ(rules.GetInt("num_rules", -1), 1);
  EXPECT_EQ(rules.Find("rules")->items()[0].GetString("kind", ""),
            "constraint");

  // Round-trip a request DTO through JSON.
  auto parsed = util::Json::Parse(
      "{\"solver\":\"psl\",\"threshold\":0.25,\"max_facts\":7}");
  ASSERT_TRUE(parsed.ok());
  auto req = api::SolveRequest::FromJson(*parsed);
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->options.solver, rules::SolverKind::kPsl);
  EXPECT_EQ(req->options.derived_threshold, 0.25);
  EXPECT_EQ(req->max_facts, 7u);
  EXPECT_FALSE(api::SolveRequest::FromJson(
                   *util::Json::Parse("{\"solver\":\"nope\"}"))
                   .ok());

  // Mine and suggest bodies: counts are read as given, and a negative
  // count is refused rather than wrapped to a huge cap.
  auto mine = api::MineRequest::FromJson(*util::Json::Parse(
      "{\"min_support\":3,\"max_bucket_facts\":40,\"adopt\":true}"));
  ASSERT_TRUE(mine.ok());
  EXPECT_EQ(mine->options.min_support, 3u);
  EXPECT_EQ(mine->options.max_bucket_facts, 40u);
  EXPECT_TRUE(mine->adopt);
  auto negative = api::MineRequest::FromJson(
      *util::Json::Parse("{\"max_bucket_facts\":-1}"));
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(api::HttpStatusFor(negative.status()), 400);
  EXPECT_FALSE(api::MineRequest::FromJson(
                   *util::Json::Parse("{\"min_support\":-1e300}"))
                   .ok());
}

TEST(ApiEngine, SuggestReportsTheMinersCounts) {
  api::Engine engine;
  ASSERT_TRUE(engine
                  .LoadGraphText("A playsFor X [1,5] 0.9 .\n"
                                 "A playsFor Y [3,8] 0.6 .\n"
                                 "A playsFor Z [9,12] 0.7 .\n"
                                 "B playsFor X [2,6] 0.8 .\n"
                                 "B playsFor Z [7,9] 0.7 .\n")
                  .ok());
  auto snap = engine.snapshot();
  mine::MiningOptions options;
  options.min_support = 1;
  auto report = snap->MineConstraints(options);
  ASSERT_TRUE(report.ok());
  // A: X/Y overlap, X/Z and Y/Z do not; B: X/Z do not. The one overlap
  // disagrees, so functional_playsFor has no support.
  ASSERT_EQ(report->rules.size(), 1u);
  const mine::MinedRule& disjoint = report->rules.front();
  EXPECT_EQ(disjoint.rule.name, "disjoint_playsFor");
  EXPECT_EQ(disjoint.support, 3u);
  EXPECT_EQ(disjoint.violations, 1u);

  const util::Json suggest = api::SuggestJson(*snap, *report);
  EXPECT_EQ(suggest.GetInt("num_suggestions", -1), 1);
  const util::Json& entry = suggest.Find("suggestions")->items().front();
  EXPECT_EQ(entry.GetString("rule", ""), disjoint.rule.ToString());
  EXPECT_EQ(entry.GetInt("support", -1), 4);  // instances examined
  EXPECT_EQ(entry.GetNumber("violation_rate", -1.0), 0.25);
  EXPECT_EQ(entry.GetString("rationale", ""),
            "4 same-subject 'playsFor' pairs with different objects; 25.0% "
            "overlap in time");
}

TEST(ApiEngine, PublishListenersSeeEveryVersionInOrder) {
  api::Engine engine;
  std::vector<uint64_t> seen;
  const uint64_t id = engine.AddPublishListener(
      [&seen](std::shared_ptr<const api::Snapshot> snap) {
        ASSERT_NE(snap, nullptr);
        seen.push_back(snap->version);
      });
  ASSERT_TRUE(engine.LoadGraphText(kFig1Utkg).ok());
  ASSERT_TRUE(engine.AddRulesText(kDisjointConstraint).ok());
  ASSERT_TRUE(engine.Solve(core::ResolveOptions()).ok());
  for (int b = 0; b < 5; ++b) {
    ASSERT_TRUE(engine
                    .ApplyEditScript(
                        StringPrintf("+ CR coach club%d [%d,%d] 0.5 .", b,
                                     2006 + b, 2007 + b),
                        core::ResolveOptions())
                    .ok());
  }
  // One callback per publish, versions 1..8, strictly in order.
  ASSERT_EQ(seen.size(), 8u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], i + 1);
  }
  // After removal the listener is silent; the snapshot the callback got
  // was the one snapshot() served at that instant.
  engine.RemovePublishListener(id);
  ASSERT_TRUE(engine.AddRulesText("c3: quad(x, playsFor, y, t) & "
                                  "quad(x, playsFor, z, t') & y != z -> "
                                  "disjoint(t, t') .")
                  .ok());
  EXPECT_EQ(seen.size(), 8u);
}

TEST(ApiEngine, CloseForListenersSignalsAndDropsObservers) {
  api::Engine engine;
  int closes = 0;
  int publishes = 0;
  engine.AddPublishListener(
      [&](std::shared_ptr<const api::Snapshot> snap) {
        if (snap == nullptr) {
          ++closes;
        } else {
          ++publishes;
        }
      });
  ASSERT_TRUE(engine.LoadGraphText(kFig1Utkg).ok());
  engine.CloseForListeners();
  engine.CloseForListeners();  // idempotent: one close signal only
  EXPECT_EQ(publishes, 1);
  EXPECT_EQ(closes, 1);
  // Writes on a retired engine still publish snapshots (the registry has
  // merely unlisted it) but no longer notify the dropped listeners.
  ASSERT_TRUE(engine.AddRulesText(kDisjointConstraint).ok());
  EXPECT_EQ(publishes, 1);
  // A listener added after close is told immediately.
  engine.AddPublishListener(
      [&](std::shared_ptr<const api::Snapshot> snap) {
        if (snap == nullptr) ++closes;
      });
  EXPECT_EQ(closes, 2);
}

TEST(ApiEngine, PublishCachesReuseAcrossEdits) {
  // Publish-path caches: the completion index is shared between snapshots
  // while the set of live predicates is stable, and a cached conflict
  // report is carried forward when an edit touches no rule predicate.
  api::Engine engine;
  ASSERT_TRUE(engine.LoadGraphText(kFig1Utkg).ok());
  ASSERT_TRUE(engine.AddRulesText(kDisjointConstraint).ok());
  auto counters = engine.cache_counters();
  EXPECT_EQ(counters.completion_rebuilt, 1u);  // the initial load
  EXPECT_EQ(counters.completion_reused, 0u);
  EXPECT_EQ(counters.conflict_carried, 0u);

  // Compute (and cache) the conflict report for the current snapshot.
  auto baseline_report = engine.snapshot()->DetectConflicts();
  ASSERT_TRUE(baseline_report.ok());
  const auto baseline_rules = engine.snapshot()->rules;
  const size_t baseline_conflicts = (*baseline_report)->NumConflicts();
  EXPECT_GT(baseline_conflicts, 0u);

  // An edit on a predicate no rule mentions: the completion index is
  // rebuilt (new predicate => predicate set changed) but the conflict
  // report carries over with its input-fact count patched.
  auto hobby = engine.ApplyEditScript("+ CR hobby golf [1970,2017] 0.8 .",
                                      core::ResolveOptions());
  ASSERT_TRUE(hobby.ok()) << hobby.status().ToString();
  counters = engine.cache_counters();
  EXPECT_EQ(counters.completion_rebuilt, 2u);
  EXPECT_EQ(counters.conflict_carried, 1u);
  auto carried = hobby->snapshot->DetectConflicts();
  ASSERT_TRUE(carried.ok());
  EXPECT_EQ((*carried)->NumConflicts(), baseline_conflicts);
  EXPECT_EQ((*carried)->num_input_facts,
            hobby->snapshot->graph->NumLiveFacts());
  // What the write did not change is shared, not copied: the conflict
  // lists and the rule set.
  EXPECT_EQ((*carried)->lists, (*baseline_report)->lists);
  EXPECT_EQ(hobby->snapshot->rules, baseline_rules);

  // Same predicate again: predicate set unchanged, completion index is
  // shared with the previous snapshot (same object), report carried again.
  auto again = engine.ApplyEditScript("+ CR hobby chess [1960,2017] 0.7 .",
                                      core::ResolveOptions());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  counters = engine.cache_counters();
  EXPECT_EQ(counters.completion_reused, 1u);
  EXPECT_EQ(counters.completion_rebuilt, 2u);
  EXPECT_EQ(counters.conflict_carried, 2u);
  EXPECT_EQ(again->snapshot->predicates, hobby->snapshot->predicates);

  // An edit on a rule predicate must NOT carry the report: the new coach
  // spell overlaps both existing ones and creates new conflicts.
  auto coach = engine.ApplyEditScript("+ CR coach Bari [2000,2003] 0.5 .",
                                      core::ResolveOptions());
  ASSERT_TRUE(coach.ok()) << coach.status().ToString();
  EXPECT_EQ(coach->snapshot->rules, baseline_rules);
  counters = engine.cache_counters();
  EXPECT_EQ(counters.conflict_carried, 2u);  // unchanged
  EXPECT_EQ(counters.completion_reused, 2u);  // coach already existed
  auto recomputed = coach->snapshot->DetectConflicts();
  ASSERT_TRUE(recomputed.ok());
  EXPECT_GT((*recomputed)->NumConflicts(), baseline_conflicts);
}

}  // namespace
}  // namespace tecore
