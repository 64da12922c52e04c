// Semi-naive delta grounding must produce exactly the same ground network
// as naive fixpoint evaluation — same atoms (with evidence flags and prior
// weights) and same clauses — on every datagen workload. Atom ids may be
// assigned in a different order between the two modes, so the comparison
// canonicalizes atoms to (s, p, o, interval) keys and clauses to sorted
// signed-key multisets.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "datagen/generators.h"
#include "ground/grounder.h"
#include "rules/library.h"
#include "rules/parser.h"
#include "util/string_util.h"

namespace tecore {
namespace ground {
namespace {

std::string AtomKey(const GroundNetwork& net, AtomId id) {
  const GroundAtom& a = net.atom(id);
  return StringPrintf("%u|%u|%u|%lld|%lld", a.subject, a.predicate, a.object,
                      static_cast<long long>(a.interval.begin()),
                      static_cast<long long>(a.interval.end()));
}

/// Canonical form of a network: atom key -> (evidence, prior) plus the
/// sorted multiset of canonicalized clauses.
struct Canonical {
  std::map<std::string, std::pair<bool, double>> atoms;
  std::vector<std::string> clauses;
};

Canonical Canonicalize(const GroundNetwork& net) {
  Canonical out;
  for (AtomId id = 0; id < net.NumAtoms(); ++id) {
    const GroundAtom& a = net.atom(id);
    out.atoms[AtomKey(net, id)] = {a.is_evidence, a.prior_weight};
  }
  for (const GroundClause& clause : net.clauses()) {
    std::vector<std::string> lits;
    for (int32_t lit : clause.literals) {
      lits.push_back((LiteralSign(lit) ? "+" : "-") +
                     AtomKey(net, LiteralAtom(lit)));
    }
    std::sort(lits.begin(), lits.end());
    std::string key = clause.hard ? "hard"
                                  : StringPrintf("soft:%.9f", clause.weight);
    key += StringPrintf("|rule=%d|", clause.rule_index);
    for (const std::string& lit : lits) key += lit + " ";
    out.clauses.push_back(std::move(key));
  }
  std::sort(out.clauses.begin(), out.clauses.end());
  return out;
}

void ExpectEquivalent(rdf::TemporalGraph* graph, const rules::RuleSet& rules) {
  GroundingOptions naive;
  naive.semi_naive = false;

  Grounder naive_grounder(graph, rules, naive);
  auto naive_result = naive_grounder.Run();
  ASSERT_TRUE(naive_result.ok()) << naive_result.status().ToString();
  Canonical a = Canonicalize(naive_result->network);

  GroundingOptions delta;
  delta.semi_naive = true;

  Grounder delta_grounder(graph, rules, delta);
  auto delta_result = delta_grounder.Run();
  ASSERT_TRUE(delta_result.ok()) << delta_result.status().ToString();

  EXPECT_EQ(naive_result->network.NumAtoms(),
            delta_result->network.NumAtoms());
  EXPECT_EQ(naive_result->network.NumClauses(),
            delta_result->network.NumClauses());
  EXPECT_EQ(naive_result->num_groundings, delta_result->num_groundings);
  EXPECT_EQ(naive_result->num_satisfied_heads,
            delta_result->num_satisfied_heads);

  Canonical b = Canonicalize(delta_result->network);
  EXPECT_EQ(a.atoms, b.atoms);
  EXPECT_EQ(a.clauses, b.clauses);
}

TEST(SemiNaiveEquivalence, RunningExampleConstraints) {
  rdf::TemporalGraph graph = datagen::RunningExampleGraph(true);
  auto rules = rules::ParseRules(R"(
    c2: quad(x, coach, y, t) & quad(x, coach, z, t') & y != z
        -> disjoint(t, t') .
  )");
  ASSERT_TRUE(rules.ok());
  ExpectEquivalent(&graph, *rules);
}

TEST(SemiNaiveEquivalence, RunningExampleChainedInference) {
  rdf::TemporalGraph graph = datagen::RunningExampleGraph(true);
  // f1 feeds f2: grounding needs several fixpoint rounds, which is where
  // naive and semi-naive evaluation genuinely diverge in work done.
  auto rules = rules::ParseRules(R"(
    f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5 .
    f2: quad(x, worksFor, y, t) & quad(y, locatedIn, z, t')
        [intersects(t, t')] -> quad(x, livesIn, z, t ^ t') w = 1.6 .
  )");
  ASSERT_TRUE(rules.ok());
  ExpectEquivalent(&graph, *rules);
}

TEST(SemiNaiveEquivalence, FootballDbFullRules) {
  datagen::FootballDbOptions gen;
  gen.num_players = 120;
  datagen::GeneratedKg kg = datagen::GenerateFootballDb(gen);
  auto constraints = rules::FootballConstraints();
  auto inference = rules::FootballInferenceRules();
  ASSERT_TRUE(constraints.ok());
  ASSERT_TRUE(inference.ok());
  rules::RuleSet full = *constraints;
  full.Merge(*inference);
  ExpectEquivalent(&kg.graph, full);
}

TEST(SemiNaiveEquivalence, WikidataConstraints) {
  datagen::WikidataOptions gen;
  gen.target_facts = 4000;
  datagen::GeneratedKg kg = datagen::GenerateWikidata(gen);
  auto constraints = rules::WikidataConstraints();
  ASSERT_TRUE(constraints.ok());
  ExpectEquivalent(&kg.graph, *constraints);
}

TEST(SemiNaiveEquivalence, AtomsSinceTracksTheFrontier) {
  // The frontier hook used by semi-naive rounds: ids at or after `since`.
  GroundNetwork net;
  for (rdf::TermId t = 0; t < 5; ++t) {
    net.GetOrAddAtom(t, 100, 200, temporal::Interval(1, 2), true, 0.1, t);
  }
  EXPECT_EQ(net.AtomsSince(0).size(), 5u);
  EXPECT_EQ(net.AtomsSince(3).size(), 2u);
  EXPECT_EQ(net.AtomsSince(3)[0], 3u);
  EXPECT_TRUE(net.AtomsSince(5).empty());
}

}  // namespace
}  // namespace ground
}  // namespace tecore
