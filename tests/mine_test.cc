#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/engine.h"
#include "core/conflict.h"
#include "datagen/generators.h"
#include "mine/miner.h"
#include "rules/ast.h"
#include "rules/parser.h"
#include "temporal/interval.h"
#include "util/random.h"

namespace tecore {
namespace mine {
namespace {

/// The default noisy FootballDB workload the miner is tuned for.
rdf::TemporalGraph NoisyFootball(size_t players) {
  datagen::FootballDbOptions gen;
  gen.num_players = players;
  return std::move(datagen::GenerateFootballDb(gen).graph);
}

const MinedRule* FindByName(const MiningReport& report,
                            const std::string& name) {
  for (const MinedRule& mined : report.rules) {
    if (mined.rule.name == name) return &mined;
  }
  return nullptr;
}

TEST(Miner, RecoversPlantedDisjointnessWithTopSupport) {
  rdf::TemporalGraph graph = NoisyFootball(800);
  const MiningReport report = Miner().Mine(graph);
  ASSERT_FALSE(report.rules.empty());
  // The generator plants parallel-career noise on playsFor; the
  // disjointness pattern over it has the most instances of any mined
  // pattern, so it must lead the ranking.
  EXPECT_EQ(report.rules.front().rule.name, "disjoint_playsFor");
  EXPECT_EQ(report.rules.front().kind, PatternKind::kDisjointness);
  EXPECT_GT(report.rules.front().violations, 0u);  // noisy: soft rule
  EXPECT_FALSE(report.rules.front().rule.hard);
  EXPECT_GT(report.rules.front().rule.weight, 0.0);
}

TEST(Miner, FindsBirthPrecedesPlayingOnCleanData) {
  datagen::FootballDbOptions gen;
  gen.num_players = 400;
  gen.noise_rate = 0.0;
  rdf::TemporalGraph graph =
      std::move(datagen::GenerateFootballDb(gen).graph);
  const MiningReport report = Miner().Mine(graph);
  const MinedRule* precede =
      FindByName(report, "precede_birthDate_playsFor");
  ASSERT_NE(precede, nullptr);
  EXPECT_EQ(precede->kind, PatternKind::kPrecedence);
  EXPECT_EQ(precede->violations, 0u);
  EXPECT_TRUE(precede->rule.hard);  // violation-free evidence -> hard
  // The reverse direction must not survive.
  EXPECT_EQ(FindByName(report, "precede_playsFor_birthDate"), nullptr);
}

TEST(Miner, CleanCareersGiveHardDisjointness) {
  datagen::FootballDbOptions gen;
  gen.num_players = 500;
  gen.noise_rate = 0.0;
  rdf::TemporalGraph graph =
      std::move(datagen::GenerateFootballDb(gen).graph);
  const MiningReport report = Miner().Mine(graph);
  const MinedRule* disjoint = FindByName(report, "disjoint_playsFor");
  ASSERT_NE(disjoint, nullptr);
  EXPECT_EQ(disjoint->violations, 0u);  // clean data: no overlaps
  EXPECT_GT(disjoint->support, 20u);
  EXPECT_TRUE(disjoint->rule.IsConstraint());
  EXPECT_TRUE(disjoint->rule.hard);
}

TEST(Miner, ToleratesModerateNoise) {
  datagen::FootballDbOptions gen;
  gen.num_players = 500;
  gen.noise_rate = 0.4;
  rdf::TemporalGraph graph =
      std::move(datagen::GenerateFootballDb(gen).graph);
  const MiningReport report = Miner().Mine(graph);
  const MinedRule* disjoint = FindByName(report, "disjoint_playsFor");
  ASSERT_NE(disjoint, nullptr);
  const double violation_rate =
      static_cast<double>(disjoint->violations) /
      static_cast<double>(disjoint->support + disjoint->violations);
  EXPECT_GT(violation_rate, 0.0);  // injected overlaps
  EXPECT_LT(violation_rate, 0.25);
}

TEST(Miner, ChaoticPredicateMinesNothing) {
  // Random overlapping memberships with many objects: no constraint holds.
  rdf::TemporalGraph graph;
  Rng rng(7);
  for (int s = 0; s < 40; ++s) {
    for (int i = 0; i < 4; ++i) {
      const int64_t b = rng.UniformRange(2000, 2004);  // heavy overlap
      ASSERT_TRUE(graph
                      .AddQuad("s" + std::to_string(s), "tag",
                               "o" + std::to_string(rng.UniformRange(0, 9)),
                               temporal::Interval(b, b + 5), 0.9)
                      .ok());
    }
  }
  const MiningReport report = Miner().Mine(graph);
  EXPECT_EQ(report.predicates_profiled, 1u);
  EXPECT_GT(report.patterns_considered, 0u);
  EXPECT_TRUE(report.rules.empty());
}

TEST(Miner, LowerMinSupportSurfacesASmallPattern) {
  // Three disjoint spells of one subject: 3 satisfying pairs, under the
  // default support threshold.
  rdf::TemporalGraph graph;
  ASSERT_TRUE(
      graph.AddQuad("a", "memberOf", "x", temporal::Interval(0, 1), 0.9).ok());
  ASSERT_TRUE(
      graph.AddQuad("a", "memberOf", "y", temporal::Interval(3, 4), 0.9).ok());
  ASSERT_TRUE(
      graph.AddQuad("a", "memberOf", "z", temporal::Interval(6, 7), 0.9).ok());
  EXPECT_TRUE(Miner().Mine(graph).rules.empty());
  MiningOptions options;
  options.min_support = 2;
  const MiningReport report = Miner(options).Mine(graph);
  const MinedRule* disjoint = FindByName(report, "disjoint_memberOf");
  ASSERT_NE(disjoint, nullptr);
  EXPECT_EQ(disjoint->support, 3u);
  EXPECT_EQ(disjoint->violations, 0u);
}

TEST(Miner, MinedDocumentRoundTripsThroughTheParser) {
  rdf::TemporalGraph graph = NoisyFootball(600);
  MiningOptions options;
  const MiningReport report = Miner(options).Mine(graph);
  ASSERT_FALSE(report.rules.empty());
  const std::string text = WriteMinedRulesText(report, options);

  // Emit -> parse: the '#' evidence comments are skipped, the rules are
  // reproduced exactly.
  auto parsed = rules::ParseRules(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const rules::RuleSet expected = report.ToRuleSet();
  ASSERT_EQ(parsed->Size(), expected.Size());
  for (size_t i = 0; i < expected.Size(); ++i) {
    EXPECT_EQ(parsed->rules[i].ToString(), expected.rules[i].ToString());
  }

  // Parse -> re-emit: bit-identical canonical rule text.
  EXPECT_EQ(rules::WriteRulesText(*parsed),
            rules::WriteRulesText(expected));
  // And the full mined document is itself a fixed point under
  // parse + re-mine of nothing: re-rendering the same report must be
  // byte-identical (no timestamps or run-dependent state).
  EXPECT_EQ(WriteMinedRulesText(report, options), text);
}

TEST(Miner, MinedRulesDetectTheInjectedConflicts) {
  rdf::TemporalGraph graph = NoisyFootball(400);
  const MiningReport report = Miner().Mine(graph);
  ASSERT_FALSE(report.rules.empty());
  const rules::RuleSet mined = report.ToRuleSet();
  core::ConflictDetector detector(&graph, mined);
  auto conflicts = detector.Detect();
  ASSERT_TRUE(conflicts.ok()) << conflicts.status().ToString();
  EXPECT_GT(conflicts->NumConflicts(), 0u);
}

TEST(Miner, MinedRulesSolveEndToEnd) {
  api::Engine engine;
  auto loaded = engine.SetGraph(NoisyFootball(120));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const MiningReport report = Miner().Mine(*(*loaded)->graph);
  ASSERT_FALSE(report.rules.empty());
  auto added =
      engine.AddRulesText(rules::WriteRulesText(report.ToRuleSet()));
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  auto solved = engine.Solve({});
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_TRUE(solved->result->feasible);
  // Resolution dropped at least one fact: the mined constraints bind.
  EXPECT_LT(solved->result->ConsistentGraph(*solved->snapshot->graph)
                .NumLiveFacts(),
            solved->snapshot->graph->NumLiveFacts());
}

TEST(Miner, SkipsPredicatesTheRuleLanguageCannotName) {
  rdf::TemporalGraph graph;
  // "p2" parses as a rule variable, "a|b" as garbage: both would produce
  // rules that do not round-trip, so the miner must skip them (and count
  // the skips), even with plenty of disjoint evidence.
  for (const char* pred : {"p2", "a|b"}) {
    for (int s = 0; s < 30; ++s) {
      for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(graph
                        .AddQuad("s" + std::to_string(s), pred,
                                 "o" + std::to_string(i),
                                 temporal::Interval(i * 10, i * 10 + 3),
                                 0.9)
                        .ok());
      }
    }
  }
  MiningOptions options;
  options.min_support = 2;
  const MiningReport report = Miner(options).Mine(graph);
  EXPECT_TRUE(report.rules.empty());
  EXPECT_EQ(report.predicates_profiled, 0u);
  EXPECT_EQ(report.predicates_skipped, 2u);
}

TEST(Miner, IsSafeRulePredicate) {
  EXPECT_TRUE(IsSafeRulePredicate("playsFor"));
  EXPECT_TRUE(IsSafeRulePredicate("birthDate"));
  EXPECT_TRUE(IsSafeRulePredicate("P69"));  // upper first char: constant
  EXPECT_FALSE(IsSafeRulePredicate("p2"));  // lower + digits: a variable
  EXPECT_FALSE(IsSafeRulePredicate("x"));
  EXPECT_FALSE(IsSafeRulePredicate("before"));  // reserved Allen name
  EXPECT_FALSE(IsSafeRulePredicate("quad"));
  EXPECT_FALSE(IsSafeRulePredicate("w"));
  EXPECT_FALSE(IsSafeRulePredicate(""));
  EXPECT_FALSE(IsSafeRulePredicate("a|b"));
  EXPECT_FALSE(IsSafeRulePredicate("has space"));
}

TEST(Miner, ThresholdsFilterCandidates) {
  rdf::TemporalGraph graph = NoisyFootball(300);
  MiningOptions strict;
  strict.min_support = 1000000;  // nothing qualifies
  EXPECT_TRUE(Miner(strict).Mine(graph).rules.empty());

  MiningOptions capped;
  capped.max_patterns = 1;
  const MiningReport top_only = Miner(capped).Mine(graph);
  ASSERT_EQ(top_only.rules.size(), 1u);
  EXPECT_GT(top_only.patterns_dropped, 0u);
  // The cap keeps the strongest candidate, same leader as the full run.
  EXPECT_EQ(top_only.rules.front().rule.name,
            Miner().Mine(graph).rules.front().rule.name);
}

TEST(Miner, EmptyGraphMinesNothing) {
  rdf::TemporalGraph graph;
  const MiningReport report = Miner().Mine(graph);
  EXPECT_TRUE(report.rules.empty());
  EXPECT_EQ(report.predicates_profiled, 0u);
  // The document is still well-formed (header only) and parses to an
  // empty rule set.
  auto parsed = rules::ParseRules(WriteMinedRulesText(report, {}));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Size(), 0u);
}

TEST(WriteRulesText, RoundTripsBitExactly) {
  const char* source = R"(
    c2: quad(x, playsFor, y, t) & quad(x, playsFor, z, t') & y != z
        -> disjoint(t, t') .
    soft: quad(x, coach, y, t) -> quad(x, worksFor, y, t) w = 2.5 .
  )";
  auto parsed = rules::ParseRules(source);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::string text = rules::WriteRulesText(*parsed);
  auto reparsed = rules::ParseRules(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(rules::WriteRulesText(*reparsed), text);
}

}  // namespace
}  // namespace mine
}  // namespace tecore
