#include <gtest/gtest.h>

#include "datagen/generators.h"
#include "ground/components.h"
#include "ground/grounder.h"
#include "rules/library.h"
#include "rules/parser.h"

namespace tecore {
namespace ground {
namespace {

/// Grounds the paper's running example with the given rule text.
Result<GroundingResult> GroundExample(const std::string& rule_text,
                                      rdf::TemporalGraph* graph,
                                      GroundingOptions options = {}) {
  auto rules = rules::ParseRules(rule_text);
  if (!rules.ok()) return rules.status();
  Grounder grounder(graph, *rules, options);
  return grounder.Run();
}

TEST(Grounder, SeedsOneAtomPerFact) {
  rdf::TemporalGraph graph = datagen::RunningExampleGraph(false);
  auto result = GroundExample("quad(x, coach, y, t) -> false .", &graph);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->network.NumAtoms(), graph.NumFacts());
  for (AtomId id = 0; id < result->network.NumAtoms(); ++id) {
    EXPECT_TRUE(result->network.atom(id).is_evidence);
  }
}

TEST(Grounder, C2FindsTheChelseaNapoliClash) {
  rdf::TemporalGraph graph = datagen::RunningExampleGraph(false);
  GroundingOptions options;
  options.add_evidence_priors = false;
  auto result = GroundExample(
      "c2: quad(x, coach, y, t) & quad(x, coach, z, t') & y != z "
      "-> disjoint(t, t') .",
      &graph, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Chelsea [2000,2004] vs Napoli [2001,2003] overlap -> one conflict
  // clause (the symmetric grounding deduplicates); Leicester [2015,2017]
  // is disjoint from both.
  ASSERT_EQ(result->network.NumClauses(), 1u);
  const GroundClause& clause = result->network.clauses()[0];
  EXPECT_TRUE(clause.hard);
  EXPECT_EQ(clause.literals.size(), 2u);
  for (int32_t lit : clause.literals) {
    EXPECT_FALSE(LiteralSign(lit));
  }
}

TEST(Grounder, SatisfiedConditionHeadsEmitNoClause) {
  rdf::TemporalGraph graph = datagen::RunningExampleGraph(false);
  GroundingOptions options;
  options.add_evidence_priors = false;
  // Constraint heads that hold (disjoint pairs) are counted, not emitted.
  auto result = GroundExample(
      "c2: quad(x, coach, y, t) & quad(x, coach, z, t') & y != z "
      "-> disjoint(t, t') .",
      &graph, options);
  ASSERT_TRUE(result.ok());
  // Pairs: (Chelsea,Leicester), (Chelsea,Napoli), (Leicester,Napoli) in
  // both orders = 6 groundings; 4 satisfied, 2 (the clash, both orders)
  // collapse into 1 clause.
  EXPECT_EQ(result->num_satisfied_heads, 4u);
  EXPECT_EQ(result->network.NumClauses(), 1u);
}

TEST(Grounder, InferenceRuleDerivesAtoms) {
  rdf::TemporalGraph graph = datagen::RunningExampleGraph(false);
  GroundingOptions options;
  options.add_evidence_priors = false;
  auto result = GroundExample(
      "f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5 .",
      &graph, options);
  ASSERT_TRUE(result.ok());
  // One playsFor fact -> one derived worksFor atom + implication clause.
  EXPECT_EQ(result->network.NumAtoms(), graph.NumFacts() + 1);
  EXPECT_EQ(result->network.NumClauses(), 1u);
  const GroundClause& clause = result->network.clauses()[0];
  EXPECT_FALSE(clause.hard);
  EXPECT_DOUBLE_EQ(clause.weight, 2.5);
  EXPECT_EQ(clause.literals.size(), 2u);
}

TEST(Grounder, ChainedRulesReachFixpoint) {
  rdf::TemporalGraph graph = datagen::RunningExampleGraph(true);
  GroundingOptions options;
  options.add_evidence_priors = false;
  auto result = GroundExample(R"(
      f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5 .
      f2: quad(x, worksFor, y, t) & quad(y, locatedIn, z, t')
          [intersects(t, t')] -> quad(x, livesIn, z, t ^ t') w = 1.6 .
  )",
                              &graph, options);
  ASSERT_TRUE(result.ok());
  // f1 derives (CR, worksFor, Palermo, [1984,1986]); f2 chains on it to
  // derive (CR, livesIn, PalermoCity, [1984,1986]).
  EXPECT_GT(result->rounds, 1);
  bool found_works_for = false, found_lives_in = false;
  const auto& dict = graph.dict();
  for (AtomId id = 0; id < result->network.NumAtoms(); ++id) {
    const GroundAtom& atom = result->network.atom(id);
    if (atom.is_evidence) continue;
    const std::string pred = dict.Lookup(atom.predicate).lexical();
    if (pred == "worksFor") {
      found_works_for = true;
      EXPECT_EQ(atom.interval, temporal::Interval(1984, 1986));
    }
    if (pred == "livesIn") {
      found_lives_in = true;
      EXPECT_EQ(atom.interval, temporal::Interval(1984, 1986));
      EXPECT_EQ(dict.Lookup(atom.object).lexical(), "PalermoCity");
    }
  }
  EXPECT_TRUE(found_works_for);
  EXPECT_TRUE(found_lives_in);
}

TEST(Grounder, EmptyIntersectionDerivesNothing) {
  rdf::TemporalGraph graph;
  ASSERT_TRUE(graph.AddQuad("a", "pp", "b", temporal::Interval(1, 2), 0.9).ok());
  ASSERT_TRUE(graph.AddQuad("b", "qq", "c", temporal::Interval(5, 6), 0.9).ok());
  GroundingOptions options;
  options.add_evidence_priors = false;
  // No intersects() guard: the head interval is empty -> no clause.
  auto result = GroundExample(
      "quad(x, pp, y, t) & quad(y, qq, z, t') -> quad(x, rr, z, t ^ t') w = 1 .",
      &graph, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->network.NumAtoms(), 2u);
  EXPECT_EQ(result->network.NumClauses(), 0u);
}

TEST(Grounder, ArithmeticConditionFiltersGroundings) {
  rdf::TemporalGraph graph = datagen::RunningExampleGraph(false);
  GroundingOptions options;
  options.add_evidence_priors = false;
  // CR starts playing at 33 (1984-1951): not a teen.
  auto result = GroundExample(
      "f3: quad(x, playsFor, y, t) & quad(x, birthDate, z, t') "
      "[t - t' < 20] -> quad(x, type, TeenPlayer, t) w = 2.9 .",
      &graph, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->network.NumClauses(), 0u);

  // With a lenient bound the rule fires.
  auto result2 = GroundExample(
      "quad(x, playsFor, y, t) & quad(x, birthDate, z, t') "
      "[t - t' < 40] -> quad(x, type, TeenPlayer, t) w = 2.9 .",
      &graph, options);
  ASSERT_TRUE(result2.ok());
  EXPECT_EQ(result2->network.NumClauses(), 1u);
}

TEST(Grounder, EvidencePriorsAreEmitted) {
  rdf::TemporalGraph graph = datagen::RunningExampleGraph(false);
  auto result = GroundExample("quad(x, nosuch, y, t) -> false .", &graph);
  ASSERT_TRUE(result.ok());
  // No rule clauses, but one unit prior per evidence atom (confidences are
  // all != 0.5).
  EXPECT_EQ(result->network.NumClauses(), graph.NumFacts());
  for (const GroundClause& clause : result->network.clauses()) {
    EXPECT_EQ(clause.rule_index, -1);
    EXPECT_EQ(clause.literals.size(), 1u);
    EXPECT_FALSE(clause.hard);
    EXPECT_GT(clause.weight, 0.0);
  }
}

TEST(Grounder, DuplicateQuadEvidenceMergesSupport) {
  rdf::TemporalGraph graph;
  ASSERT_TRUE(graph.AddQuad("a", "pp", "b", temporal::Interval(1, 2), 0.8).ok());
  ASSERT_TRUE(graph.AddQuad("a", "pp", "b", temporal::Interval(1, 2), 0.7).ok());
  auto result = GroundExample("quad(x, nosuch, y, t) -> false .", &graph);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->network.NumAtoms(), 1u);
  const GroundAtom& atom = result->network.atom(0);
  // The confidences add up.
  EXPECT_NEAR(atom.prior_weight, 0.8 + 0.7, 1e-9);
}

TEST(Grounder, MaxAtomsGuardTrips) {
  rdf::TemporalGraph graph = datagen::RunningExampleGraph(true);
  GroundingOptions options;
  options.max_atoms = 3;  // absurdly small
  auto result = GroundExample(
      "f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5 .",
      &graph, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(GroundNetwork, TautologiesAndDuplicatesDropped) {
  GroundNetwork net;
  AtomId a = net.GetOrAddAtom(0, 1, 2, temporal::Interval(0, 1), true, 1.0, 0);
  AtomId b = net.GetOrAddAtom(0, 1, 3, temporal::Interval(0, 1), true, 1.0, 1);
  GroundClause tautology;
  tautology.literals = {PositiveLiteral(a), NegativeLiteral(a)};
  EXPECT_FALSE(net.AddClause(tautology));
  GroundClause clause;
  clause.literals = {NegativeLiteral(a), NegativeLiteral(b)};
  EXPECT_TRUE(net.AddClause(clause));
  EXPECT_FALSE(net.AddClause(clause));  // duplicate
  EXPECT_EQ(net.NumClauses(), 1u);
}

TEST(GroundNetwork, ComponentsSplitIndependentSubjects) {
  GroundNetwork net;
  AtomId a = net.GetOrAddAtom(0, 1, 2, temporal::Interval(0, 1), true, 1.0, 0);
  AtomId b = net.GetOrAddAtom(0, 1, 3, temporal::Interval(0, 1), true, 1.0, 1);
  AtomId c = net.GetOrAddAtom(9, 1, 2, temporal::Interval(0, 1), true, 1.0, 2);
  GroundClause clause;
  clause.literals = {NegativeLiteral(a), NegativeLiteral(b)};
  net.AddClause(clause);
  GroundClause unit;
  unit.hard = false;
  unit.weight = 1.0;
  unit.literals = {PositiveLiteral(c)};
  net.AddClause(unit);
  ComponentPartition components;
  components.Build(net);
  ASSERT_EQ(components.size(), 2u);
  // {a,b} with the binary clause; {c} with its unit.
  size_t sizes[2] = {components.atoms(0).size(), components.atoms(1).size()};
  EXPECT_EQ(sizes[0] + sizes[1], 3u);
}

}  // namespace
}  // namespace ground
}  // namespace tecore
