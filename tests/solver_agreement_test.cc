#include <gtest/gtest.h>

#include <cmath>

#include "core/conflict.h"
#include "core/resolver.h"
#include "datagen/generators.h"
#include "ground/grounder.h"
#include "mln/solver.h"
#include "psl/solver.h"
#include "rules/library.h"
#include "rules/parser.h"
#include "util/random.h"

namespace tecore {
namespace {

/// Property suite: on randomized conflict-resolution instances, the PSL
/// pipeline must stay feasible and its Boolean objective can never beat
/// the (provably optimal) MLN objective; both must leave zero conflicts.

rdf::TemporalGraph RandomConflictGraph(uint64_t seed, int subjects) {
  Rng rng(seed);
  rdf::TemporalGraph graph;
  for (int s = 0; s < subjects; ++s) {
    const std::string subject = "s" + std::to_string(s);
    const int facts = 2 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < facts; ++f) {
      const int64_t b = rng.UniformRange(2000, 2012);
      const int64_t e = b + rng.UniformRange(0, 6);
      const double conf = 0.4 + 0.6 * rng.NextDouble();
      EXPECT_TRUE(graph
                      .AddQuad(subject, "coach",
                               "club" + std::to_string(rng.UniformRange(0, 5)),
                               temporal::Interval(b, e), conf)
                      .ok());
    }
  }
  return graph;
}

class RandomInstances : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomInstances, PslNeverBeatsOptimalMlnAndBothRepair) {
  rdf::TemporalGraph graph = RandomConflictGraph(GetParam(), 12);
  auto constraints = rules::PaperConstraints();
  ASSERT_TRUE(constraints.ok());

  ground::Grounder grounder(&graph, *constraints);
  auto grounding = grounder.Run();
  ASSERT_TRUE(grounding.ok());

  mln::MlnMapSolver mln_solver(grounding->network);
  auto mln_solution = mln_solver.Solve();
  ASSERT_TRUE(mln_solution.ok());
  ASSERT_TRUE(mln_solution->feasible);
  ASSERT_TRUE(mln_solution->optimal);

  psl::PslSolver psl_solver(grounding->network);
  auto psl_solution = psl_solver.Solve();
  ASSERT_TRUE(psl_solution.ok());
  EXPECT_TRUE(psl_solution->feasible);

  // The discrete optimum bounds the rounded relaxation from above.
  EXPECT_LE(psl_solution->objective, mln_solution->objective + 1e-6);
  // And the relaxation shouldn't be terrible on these small instances.
  EXPECT_GE(psl_solution->objective, 0.75 * mln_solution->objective);
}

TEST_P(RandomInstances, ResolverOutputsAreConflictFree) {
  for (rules::SolverKind solver :
       {rules::SolverKind::kMln, rules::SolverKind::kPsl}) {
    rdf::TemporalGraph graph = RandomConflictGraph(GetParam() * 31 + 7, 10);
    auto constraints = rules::PaperConstraints();
    ASSERT_TRUE(constraints.ok());
    core::ResolveOptions options;
    options.solver = solver;
    core::Resolver resolver(&graph, *constraints, options);
    auto result = resolver.Run();
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->feasible);
    rdf::TemporalGraph repaired = result->ConsistentGraph(graph);
    core::ConflictDetector recheck(&repaired, *constraints);
    auto report = recheck.Detect();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->NumConflicts(), 0u)
        << "solver " << static_cast<int>(solver) << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInstances,
                         ::testing::Range<uint64_t>(1, 16));

TEST(SolverAgreement, KeptWeightDominatesRemovedOnExactPath) {
  // On every random instance, the kept facts must carry at least as much
  // confidence mass as the removed ones (otherwise flipping the choice
  // would improve the MAP objective).
  for (uint64_t seed = 100; seed < 110; ++seed) {
    rdf::TemporalGraph graph = RandomConflictGraph(seed, 8);
    auto constraints = rules::PaperConstraints();
    ASSERT_TRUE(constraints.ok());
    core::ResolveOptions options;
    core::Resolver resolver(&graph, *constraints, options);
    auto result = resolver.Run();
    ASSERT_TRUE(result.ok());
    double kept = 0, removed = 0;
    for (rdf::FactId id : result->kept_facts) {
      kept += graph.fact(id).confidence;
    }
    for (rdf::FactId id : result->removed_facts) {
      removed += graph.fact(id).confidence;
    }
    EXPECT_GE(kept, removed) << "seed " << seed;
  }
}

}  // namespace
}  // namespace tecore
