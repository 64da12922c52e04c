#include <gtest/gtest.h>

#include <unordered_set>

#include "core/conflict.h"
#include "core/resolver.h"
#include "datagen/generators.h"
#include "rules/library.h"

namespace tecore {
namespace {

/// End-to-end checks on a small synthetic FootballDB: generate noisy data,
/// detect conflicts, repair with both solvers, and score the repair
/// against the generator's ground truth.

struct RepairQuality {
  double precision = 0.0;  // removed facts that were indeed noise
  double recall = 0.0;     // noise facts that were removed
};

RepairQuality ScoreRemoval(const datagen::GeneratedKg& kg,
                           const std::vector<rdf::FactId>& removed) {
  size_t true_positives = 0;
  for (rdf::FactId id : removed) {
    if (kg.is_noise[id]) ++true_positives;
  }
  RepairQuality q;
  if (!removed.empty()) {
    q.precision = static_cast<double>(true_positives) /
                  static_cast<double>(removed.size());
  }
  if (kg.num_noise > 0) {
    q.recall = static_cast<double>(true_positives) /
               static_cast<double>(kg.num_noise);
  }
  return q;
}

class FootballEndToEnd : public ::testing::TestWithParam<rules::SolverKind> {
 protected:
  static datagen::GeneratedKg MakeKg() {
    datagen::FootballDbOptions options;
    options.num_players = 250;  // small but representative
    options.noise_rate = 1.0;
    return datagen::GenerateFootballDb(options);
  }
};

TEST_P(FootballEndToEnd, RepairsNoisyKgFeasibly) {
  datagen::GeneratedKg kg = MakeKg();
  auto constraints = rules::FootballConstraints();
  ASSERT_TRUE(constraints.ok());

  core::ResolveOptions options;
  options.solver = GetParam();
  core::Resolver resolver(&kg.graph, *constraints, options);
  auto result = resolver.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->feasible) << result->StatsPanel();

  // The output graph has no remaining conflicts.
  rdf::TemporalGraph repaired = result->ConsistentGraph(kg.graph);
  core::ConflictDetector recheck(&repaired, *constraints);
  auto report = recheck.Detect();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->NumConflicts(), 0u) << result->StatsPanel();

  // Removal quality: the MAP repair should mostly remove injected noise
  // (noise has lower confidence on average).
  RepairQuality quality = ScoreRemoval(kg, result->removed_facts);
  EXPECT_GT(quality.precision, 0.85) << result->StatsPanel();
  EXPECT_GT(quality.recall, 0.5);
  EXPECT_GT(result->removed_facts.size(), 0u);
  EXPECT_LT(result->removed_facts.size(), kg.graph.NumFacts() / 2);
}

INSTANTIATE_TEST_SUITE_P(BothSolvers, FootballEndToEnd,
                         ::testing::Values(rules::SolverKind::kMln,
                                           rules::SolverKind::kPsl),
                         [](const auto& info) {
                           return info.param == rules::SolverKind::kMln
                                      ? "Mln"
                                      : "Psl";
                         });

TEST(FootballConflicts, DetectionFindsInjectedNoise) {
  datagen::FootballDbOptions options;
  options.num_players = 400;
  options.noise_rate = 1.0;
  datagen::GeneratedKg kg = datagen::GenerateFootballDb(options);
  auto constraints = rules::FootballConstraints();
  ASSERT_TRUE(constraints.ok());
  core::ConflictDetector detector(&kg.graph, *constraints);
  auto report = detector.Detect();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->NumConflicts(), 0u);
  // Most conflicting facts involve at least one injected-noise fact.
  size_t with_noise = 0;
  for (const core::Conflict& conflict : report->conflicts()) {
    for (rdf::FactId id : conflict.facts) {
      if (kg.is_noise[id]) {
        ++with_noise;
        break;
      }
    }
  }
  EXPECT_GT(static_cast<double>(with_noise) /
                static_cast<double>(report->NumConflicts()),
            0.95);
}

TEST(FootballConflicts, CleanDataHasNone) {
  datagen::FootballDbOptions options;
  options.num_players = 400;
  options.noise_rate = 0.0;
  datagen::GeneratedKg kg = datagen::GenerateFootballDb(options);
  auto constraints = rules::FootballConstraints();
  ASSERT_TRUE(constraints.ok());
  core::ConflictDetector detector(&kg.graph, *constraints);
  auto report = detector.Detect();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->NumConflicts(), 0u);
}

TEST(WikidataConflicts, ConflictShareTracksFig8) {
  // Scaled-down version of the Fig. 8 experiment: the default noise rate
  // is calibrated so ~8% of facts are conflicting.
  datagen::WikidataOptions options;
  options.target_facts = 30'000;
  datagen::GeneratedKg kg = datagen::GenerateWikidata(options);
  auto constraints = rules::WikidataConstraints();
  ASSERT_TRUE(constraints.ok());
  core::ConflictDetector detector(&kg.graph, *constraints);
  auto report = detector.Detect();
  ASSERT_TRUE(report.ok());
  double share = static_cast<double>(report->NumConflictingFacts()) /
                 static_cast<double>(kg.graph.NumFacts());
  EXPECT_GT(share, 0.04) << report->StatsPanel(*constraints);
  EXPECT_LT(share, 0.13) << report->StatsPanel(*constraints);
}

TEST(MixedPipeline, InferenceRulesExpandWhileConstraintsRepair) {
  datagen::FootballDbOptions options;
  options.num_players = 120;
  options.noise_rate = 0.5;
  datagen::GeneratedKg kg = datagen::GenerateFootballDb(options);
  auto rules = rules::FootballConstraints();
  ASSERT_TRUE(rules.ok());
  auto inclusion = rules::MakeInclusion("playsFor", "worksFor", 2.5);
  ASSERT_TRUE(inclusion.ok());
  rules->rules.push_back(*inclusion);

  core::ResolveOptions resolve_options;
  core::Resolver resolver(&kg.graph, *rules, resolve_options);
  auto result = resolver.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->feasible);
  // Every kept playsFor fact spawns a derived worksFor fact.
  size_t kept_plays_for = 0;
  for (rdf::FactId id : result->kept_facts) {
    const auto& fact = kg.graph.fact(id);
    if (kg.graph.dict().Lookup(fact.predicate).lexical() == "playsFor") {
      ++kept_plays_for;
    }
  }
  EXPECT_EQ(result->derived_facts.size(), kept_plays_for);
}

}  // namespace
}  // namespace tecore
