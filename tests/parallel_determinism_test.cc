// util::ThreadPool (the server's connection pool), and the PSL solver's
// per-component decomposition against its monolithic ADMM run.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "datagen/generators.h"
#include "ground/grounder.h"
#include "psl/solver.h"
#include "rules/library.h"
#include "util/thread_pool.h"

namespace tecore {
namespace {

ground::GroundingResult GroundFootball(size_t players) {
  datagen::FootballDbOptions gen;
  gen.num_players = players;
  datagen::GeneratedKg kg = datagen::GenerateFootballDb(gen);
  auto constraints = rules::FootballConstraints();
  EXPECT_TRUE(constraints.ok());
  ground::Grounder grounder(&kg.graph, *constraints);
  auto result = grounder.Run();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

TEST(ThreadPool, SubmitAndWait) {
  std::atomic<int> done{0};
  {
    // The destructor drains the queue before it joins the workers.
    util::ThreadPool pool(3);
    for (int i = 0; i < 32; ++i) pool.Submit([&] { ++done; });
  }
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, ResolveThreadCount) {
  EXPECT_GE(util::ResolveThreadCount(0), 1);  // auto
  EXPECT_EQ(util::ResolveThreadCount(1), 1);
  EXPECT_EQ(util::ResolveThreadCount(4), 4);
}

TEST(ParallelDeterminism, PslComponentDecompositionMatchesMonolithic) {
  // The consensus problem is separable: per-component ADMM and monolithic
  // ADMM round to the same Boolean state on the decoupled workload.
  ground::GroundingResult grounding = GroundFootball(600);
  psl::PslSolverOptions component_options;
  psl::PslSolverOptions monolithic_options;
  monolithic_options.use_components = false;

  psl::PslSolver comp_solver(grounding.network, component_options);
  auto comp = comp_solver.Solve();
  ASSERT_TRUE(comp.ok());
  psl::PslSolver mono_solver(grounding.network, monolithic_options);
  auto mono = mono_solver.Solve();
  ASSERT_TRUE(mono.ok());

  EXPECT_EQ(comp->feasible, mono->feasible);
  // Objectives agree up to rounding noise of the relaxation.
  EXPECT_NEAR(comp->objective, mono->objective,
              0.01 * std::max(1.0, mono->objective));
}

}  // namespace
}  // namespace tecore
