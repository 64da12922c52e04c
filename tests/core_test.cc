#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "api/engine.h"
#include "core/conflict.h"
#include "core/resolver.h"
#include "core/translator.h"
#include "datagen/generators.h"
#include "rules/library.h"
#include "rules/parser.h"
#include "rules/validator.h"

namespace tecore {
namespace core {
namespace {

/// The paper's full running example rule set: f1-f3 and c1-c3.
rules::RuleSet PaperRules() {
  auto inference = rules::PaperInferenceRules();
  auto constraints = rules::PaperConstraints();
  EXPECT_TRUE(inference.ok());
  EXPECT_TRUE(constraints.ok());
  rules::RuleSet set = *inference;
  set.Merge(*constraints);
  return set;
}

/// Names of the facts kept in a resolution, as "pred/object" strings.
std::set<std::string> KeptSignatures(const rdf::TemporalGraph& graph,
                                     const ResolveResult& result) {
  std::set<std::string> out;
  for (rdf::FactId id : result.kept_facts) {
    const rdf::TemporalFact& f = graph.fact(id);
    out.insert(graph.dict().Lookup(f.predicate).lexical() + "/" +
               graph.dict().Lookup(f.object).lexical());
  }
  return out;
}

class RunningExampleTest : public ::testing::TestWithParam<rules::SolverKind> {
};

TEST_P(RunningExampleTest, Fig7MapRemovesNapoliKeepsRest) {
  rdf::TemporalGraph graph = datagen::RunningExampleGraph(true);
  rules::RuleSet rules = PaperRules();
  ResolveOptions options;
  options.solver = GetParam();
  Resolver resolver(&graph, rules, options);
  auto result = resolver.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->feasible);

  // Fact (5) (CR, coach, Napoli, [2001,2003]) 0.6 clashes with fact (1)
  // (CR, coach, Chelsea, [2000,2004]) 0.9 under c2; the lower-confidence
  // one is removed (paper Fig. 7).
  std::set<std::string> kept = KeptSignatures(graph, *result);
  EXPECT_TRUE(kept.count("coach/Chelsea")) << result->StatsPanel();
  EXPECT_TRUE(kept.count("coach/Leicester"));
  EXPECT_TRUE(kept.count("playsFor/Palermo"));
  EXPECT_TRUE(kept.count("birthDate/1951"));
  EXPECT_FALSE(kept.count("coach/Napoli"));

  // Exactly one of the five CR facts is removed.
  size_t removed_cr = 0;
  for (rdf::FactId id : result->removed_facts) {
    if (graph.dict().Lookup(graph.fact(id).subject).lexical() == "CR") {
      ++removed_cr;
    }
  }
  EXPECT_EQ(removed_cr, 1u);
}

TEST_P(RunningExampleTest, DerivesWorksForAndLivesIn) {
  rdf::TemporalGraph graph = datagen::RunningExampleGraph(true);
  rules::RuleSet rules = PaperRules();
  ResolveOptions options;
  options.solver = GetParam();
  Resolver resolver(&graph, rules, options);
  auto result = resolver.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  bool works_for = false, lives_in = false;
  const rdf::TemporalGraph repaired = result->ConsistentGraph(graph);
  const auto& dict = repaired.dict();
  for (const rdf::TemporalFact& f : repaired.facts()) {
    const std::string pred = dict.Lookup(f.predicate).lexical();
    if (pred == "worksFor" &&
        dict.Lookup(f.object).lexical() == "Palermo") {
      works_for = true;
    }
    if (pred == "livesIn" &&
        dict.Lookup(f.object).lexical() == "PalermoCity") {
      lives_in = true;
    }
  }
  EXPECT_TRUE(works_for) << "f1 should derive (CR, worksFor, Palermo)";
  EXPECT_TRUE(lives_in) << "f2 should derive (CR, livesIn, PalermoCity)";
}

INSTANTIATE_TEST_SUITE_P(BothSolvers, RunningExampleTest,
                         ::testing::Values(rules::SolverKind::kMln,
                                           rules::SolverKind::kPsl),
                         [](const auto& info) {
                           return info.param == rules::SolverKind::kMln
                                      ? "Mln"
                                      : "Psl";
                         });

TEST(ConflictDetector, FindsTheOneRunningExampleConflict) {
  rdf::TemporalGraph graph = datagen::RunningExampleGraph(false);
  rules::RuleSet rules = PaperRules();
  ConflictDetector detector(&graph, rules);
  auto report = detector.Detect();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->NumConflicts(), 1u);
  EXPECT_EQ(report->NumConflictingFacts(), 2u);  // Chelsea & Napoli facts
  EXPECT_EQ(report->num_input_facts, graph.NumFacts());
  // The stats panel mentions the constraint's name.
  EXPECT_NE(report->StatsPanel(rules).find("c2"), std::string::npos);
}

TEST(ConflictDetector, CleanGraphHasNoConflicts) {
  rdf::TemporalGraph graph;
  ASSERT_TRUE(
      graph.AddQuad("CR", "coach", "Chelsea", temporal::Interval(2000, 2004), 0.9)
          .ok());
  ASSERT_TRUE(graph
                  .AddQuad("CR", "coach", "Leicester",
                           temporal::Interval(2015, 2017), 0.7)
                  .ok());
  rules::RuleSet rules = PaperRules();
  ConflictDetector detector(&graph, rules);
  auto report = detector.Detect();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->NumConflicts(), 0u);
}

TEST(Translator, RejectsDisjunctiveHeadForPsl) {
  rdf::TemporalGraph graph = datagen::RunningExampleGraph(false);
  auto rules = rules::ParseRules(
      "quad(x, coach, y, t) -> quad(x, worksFor, y, t) | "
      "quad(x, advises, y, t) w = 1 .");
  ASSERT_TRUE(rules.ok());
  auto mln = Translator::Translate(&graph, *rules, rules::SolverKind::kMln);
  EXPECT_TRUE(mln.ok());
  auto psl = Translator::Translate(&graph, *rules, rules::SolverKind::kPsl);
  EXPECT_FALSE(psl.ok());
  EXPECT_EQ(psl.status().code(), StatusCode::kInvalidArgument);
}

TEST(Resolver, ThresholdRemovesWeakDerivedFacts) {
  rdf::TemporalGraph graph = datagen::RunningExampleGraph(true);
  rules::RuleSet rules = PaperRules();
  ResolveOptions options;
  options.solver = rules::SolverKind::kMln;
  options.derived_threshold = 0.99;  // sigmoid(2.5)=0.924, sigmoid(1.6)=0.832
  Resolver resolver(&graph, rules, options);
  auto result = resolver.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->derived_facts.empty());
  EXPECT_GT(result->derived_below_threshold, 0u);

  // With no threshold the derived facts survive.
  rdf::TemporalGraph graph2 = datagen::RunningExampleGraph(true);
  ResolveOptions options2;
  options2.solver = rules::SolverKind::kMln;
  Resolver resolver2(&graph2, rules, options2);
  auto result2 = resolver2.Run();
  ASSERT_TRUE(result2.ok());
  EXPECT_FALSE(result2->derived_facts.empty());
}

TEST(Resolver, HigherWeightWinsWhenConfidencesFlip) {
  // Mirror of the running example with Napoli *more* confident than
  // Chelsea: MAP must now drop Chelsea instead.
  rdf::TemporalGraph graph;
  ASSERT_TRUE(graph
                  .AddQuad("CR", "coach", "Chelsea",
                           temporal::Interval(2000, 2004), 0.6)
                  .ok());
  ASSERT_TRUE(graph
                  .AddQuad("CR", "coach", "Napoli",
                           temporal::Interval(2001, 2003), 0.9)
                  .ok());
  auto constraints = rules::PaperConstraints();
  ASSERT_TRUE(constraints.ok());
  ResolveOptions options;
  Resolver resolver(&graph, *constraints, options);
  auto result = resolver.Run();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->removed_facts.size(), 1u);
  const rdf::TemporalFact& removed = graph.fact(result->removed_facts[0]);
  EXPECT_EQ(graph.dict().Lookup(removed.object).lexical(), "Chelsea");
}

// The demo-UI workflow — (1) select a UTKG, (2) edit rules with predicate
// auto-completion, (3) compute, (4) browse — driven through api::Engine
// and its snapshots.
TEST(EngineWorkflow, FullWorkflow) {
  api::Engine engine;
  // 1. data (the paper's Fig. 1 UTKG in .tq syntax).
  auto loaded = engine.LoadGraphText(R"(
    CR coach Chelsea [2000,2004] 0.9 .
    CR coach Leicester [2015,2017] 0.7 .
    CR playsFor Palermo [1984,1986] 0.5 .
    CR birthDate 1951 [1951,2017] 1.0 .
    CR coach Napoli [2001,2003] 0.6 .
  )");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->graph->NumFacts(), 5u);

  // Auto-completion over predicates (Fig. 5).
  auto completions = engine.snapshot()->CompletePredicate("coa");
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0], "coach");
  // A subject, not a predicate.
  EXPECT_TRUE(engine.snapshot()->CompletePredicate("CR").empty());

  // 2. rules.
  auto added = engine.AddRulesText(
      "c2: quad(x, coach, y, t) & quad(x, coach, z, t') & y != z "
      "-> disjoint(t, t') .");
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(added->added, 1u);
  EXPECT_TRUE(
      rules::CollectProblems(*added->snapshot->rules, rules::SolverKind::kPsl)
          .empty());

  // 3. compute.
  const auto snap = engine.snapshot();
  auto report = snap->DetectConflicts();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ((*report)->NumConflicts(), 1u);

  auto solved = engine.Solve(ResolveOptions());
  ASSERT_TRUE(solved.ok());
  EXPECT_EQ(solved->result->removed_facts.size(), 1u);

  // 4. browse.
  std::string description =
      snap->DescribeConflict((*report)->conflicts()[0]);
  EXPECT_NE(description.find("Napoli"), std::string::npos);
  EXPECT_NE(description.find("Chelsea"), std::string::npos);

  // Stats.
  auto stats = engine.GraphStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_facts, 5u);
  EXPECT_EQ(stats->num_distinct_predicates, 3u);
}

TEST(EngineWorkflow, ErrorsWithoutGraph) {
  api::Engine engine;
  EXPECT_FALSE(engine.snapshot()->DetectConflicts().ok());
  EXPECT_FALSE(engine.Solve(ResolveOptions()).ok());
  EXPECT_FALSE(engine.GraphStats().ok());
}

TEST(Resolver, MlnAndPslAgreeOnRunningExample) {
  rules::RuleSet rules = PaperRules();
  rdf::TemporalGraph g1 = datagen::RunningExampleGraph(true);
  rdf::TemporalGraph g2 = datagen::RunningExampleGraph(true);
  ResolveOptions mln_options;
  mln_options.solver = rules::SolverKind::kMln;
  ResolveOptions psl_options;
  psl_options.solver = rules::SolverKind::kPsl;
  auto mln_result = Resolver(&g1, rules, mln_options).Run();
  auto psl_result = Resolver(&g2, rules, psl_options).Run();
  ASSERT_TRUE(mln_result.ok());
  ASSERT_TRUE(psl_result.ok());
  EXPECT_EQ(KeptSignatures(g1, *mln_result), KeptSignatures(g2, *psl_result));
}

}  // namespace
}  // namespace core
}  // namespace tecore
