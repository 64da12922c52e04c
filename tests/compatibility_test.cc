#include <gtest/gtest.h>

#include "api/engine.h"
#include "core/compatibility.h"
#include "datagen/generators.h"
#include "rules/library.h"
#include "rules/parser.h"

namespace tecore {
namespace core {
namespace {

TEST(Compatibility, ConsistentPaperConstraints) {
  auto constraints = rules::PaperConstraints();
  ASSERT_TRUE(constraints.ok());
  CompatibilityReport report =
      AnalyzeConstraintCompatibility(*constraints);
  EXPECT_TRUE(report.possibly_consistent) << report.problems.front();
}

TEST(Compatibility, DetectsDirectContradiction) {
  auto rules = rules::ParseRules(R"(
    a_before_b: quad(x, birthDate, y, t) & quad(x, deathDate, z, t')
        -> before(t, t') .
    b_before_a: quad(x, birthDate, y, t) & quad(x, deathDate, z, t')
        -> after(t, t') .
  )");
  ASSERT_TRUE(rules.ok());
  CompatibilityReport report = AnalyzeConstraintCompatibility(*rules);
  EXPECT_FALSE(report.possibly_consistent);
  EXPECT_FALSE(report.problems.empty());
}

TEST(Compatibility, DetectsCyclicBeforeChain) {
  auto rules = rules::ParseRules(R"(
    r1: quad(x, pa, y, t) & quad(x, pb, z, t') -> before(t, t') .
    r2: quad(x, pb, y, t) & quad(x, pc, z, t') -> before(t, t') .
    r3: quad(x, pc, y, t) & quad(x, pa, z, t') -> before(t, t') .
  )");
  ASSERT_TRUE(rules.ok());
  CompatibilityReport report = AnalyzeConstraintCompatibility(*rules);
  EXPECT_FALSE(report.possibly_consistent);
}

TEST(Compatibility, HandlesSwappedHeadArguments) {
  // Head written as allen(t', t): converse must be applied. These two say
  // the same thing, so the set stays consistent.
  auto rules = rules::ParseRules(R"(
    r1: quad(x, pa, y, t) & quad(x, pb, z, t') -> before(t, t') .
    r2: quad(x, pa, y, t) & quad(x, pb, z, t') -> after(t', t) .
  )");
  ASSERT_TRUE(rules.ok());
  CompatibilityReport report = AnalyzeConstraintCompatibility(*rules);
  EXPECT_TRUE(report.possibly_consistent)
      << (report.problems.empty() ? "" : report.problems.front());
}

TEST(Compatibility, IgnoresNonAbstractableRules) {
  // Inference rules, same-predicate constraints, and arithmetic heads are
  // out of scope for the predicate-level analysis.
  auto rules = rules::ParseRules(R"(
    f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5 .
    c2: quad(x, coach, y, t) & quad(x, coach, z, t') & y != z
        -> disjoint(t, t') .
    num: quad(x, pa, y, t) & quad(x, pb, z, t') -> begin(t) < begin(t') .
  )");
  ASSERT_TRUE(rules.ok());
  CompatibilityReport report = AnalyzeConstraintCompatibility(*rules);
  EXPECT_TRUE(report.possibly_consistent);
}

TEST(EngineIntegration, MineAndAnalyze) {
  api::Engine engine;
  EXPECT_FALSE(engine.snapshot()->MineConstraints().ok());  // no graph
  datagen::FootballDbOptions gen;
  gen.num_players = 300;
  gen.noise_rate = 0.0;
  ASSERT_TRUE(
      engine.SetGraph(std::move(datagen::GenerateFootballDb(gen).graph)).ok());
  auto report = engine.snapshot()->MineConstraints();
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->rules.empty());
  auto added = engine.AddRulesText(report->rules.front().rule.ToString());
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_TRUE(AnalyzeConstraintCompatibility(*added->snapshot->rules)
                  .possibly_consistent);
}

}  // namespace
}  // namespace core
}  // namespace tecore
