#include <gtest/gtest.h>

#include <cmath>

#include "datagen/generators.h"
#include "ground/grounder.h"
#include "maxsat/local_search.h"
#include "mln/cutting_plane.h"
#include "mln/solver.h"
#include "mln/translation.h"
#include "rules/library.h"
#include "rules/parser.h"
#include "util/random.h"

namespace tecore {
namespace mln {
namespace {

ground::GroundingResult GroundRunningExample() {
  rdf::TemporalGraph local = datagen::RunningExampleGraph(true);
  auto inference = rules::PaperInferenceRules();
  auto constraints = rules::PaperConstraints();
  EXPECT_TRUE(inference.ok());
  EXPECT_TRUE(constraints.ok());
  rules::RuleSet rules = *inference;
  rules.Merge(*constraints);
  ground::Grounder grounder(&local, rules);
  auto result = grounder.Run();
  EXPECT_TRUE(result.ok());
  return std::move(*result);
}

maxsat::Wcnf RandomWcnf(Rng* rng, int num_vars, int num_clauses) {
  maxsat::Wcnf wcnf(num_vars);
  for (int c = 0; c < num_clauses; ++c) {
    const int len = 1 + static_cast<int>(rng->Uniform(3));
    std::vector<maxsat::Literal> lits;
    for (int i = 0; i < len; ++i) {
      int var = static_cast<int>(rng->Uniform(static_cast<uint64_t>(num_vars)));
      lits.push_back(rng->Bernoulli(0.5) ? maxsat::PosLit(var)
                                         : maxsat::NegLit(var));
    }
    if (rng->Bernoulli(0.25)) {
      wcnf.AddHard(std::move(lits));
    } else {
      wcnf.AddSoft(std::move(lits), 0.1 + rng->NextDouble() * 2.0);
    }
  }
  return wcnf;
}

TEST(Translation, WcnfMirrorsNetwork) {
  ground::GroundingResult grounding = GroundRunningExample();
  maxsat::Wcnf wcnf = BuildWcnf(grounding.network);
  EXPECT_EQ(static_cast<size_t>(wcnf.num_vars()),
            grounding.network.NumAtoms());
  EXPECT_EQ(wcnf.NumClauses(), grounding.network.NumClauses());
}

TEST(Translation, ComponentRenumberingIsDense) {
  ground::GroundingResult grounding = GroundRunningExample();
  ground::ComponentPartition components;
  components.Build(grounding.network);
  size_t total_atoms = 0;
  for (uint32_t c = 0; c < components.size(); ++c) {
    maxsat::Wcnf wcnf = BuildComponentWcnf(
        grounding.network, components.atoms(c), components.clauses(c));
    EXPECT_EQ(static_cast<size_t>(wcnf.num_vars()), components.atoms(c).size());
    total_atoms += components.atoms(c).size();
  }
  EXPECT_EQ(total_atoms, grounding.network.NumAtoms());
}

TEST(Translation, IlpEncodingFoldsUnitSofts) {
  maxsat::Wcnf wcnf(2);
  wcnf.AddSoft({maxsat::PosLit(0)}, 2.0);
  wcnf.AddSoft({maxsat::NegLit(1)}, 1.0);
  wcnf.AddHard({maxsat::PosLit(0), maxsat::PosLit(1)});
  ilp::IlpProblem problem = BuildIlp(wcnf);
  // No aux z for the unit softs; none needed for the hard clause either.
  EXPECT_EQ(problem.num_vars, 2);
  EXPECT_DOUBLE_EQ(problem.objective[0], 2.0);
  EXPECT_DOUBLE_EQ(problem.objective[1], -1.0);
  ASSERT_EQ(problem.rows.size(), 1u);
}

TEST(Translation, IlpEncodingAddsAuxForNonUnitSoft) {
  maxsat::Wcnf wcnf(2);
  wcnf.AddSoft({maxsat::PosLit(0), maxsat::NegLit(1)}, 1.5);
  ilp::IlpProblem problem = BuildIlp(wcnf);
  EXPECT_EQ(problem.num_vars, 3);  // 2 atoms + 1 aux
  EXPECT_DOUBLE_EQ(problem.objective[2], 1.5);
  ASSERT_EQ(problem.rows.size(), 1u);
  EXPECT_EQ(problem.rows[0].op, ilp::RowOp::kGe);
}

TEST(CuttingPlane, AgreesWithExactMaxSatOnRandomInstances) {
  Rng rng(4242);
  for (int trial = 0; trial < 30; ++trial) {
    maxsat::Wcnf wcnf =
        RandomWcnf(&rng, 2 + static_cast<int>(rng.Uniform(7)),
                   3 + static_cast<int>(rng.Uniform(14)));
    maxsat::MaxSatResult exact =
        maxsat::ExactMaxSatSolver(wcnf).Solve();
    CpaStats stats;
    maxsat::MaxSatResult cpa =
        SolveWithCpa(wcnf, ilp::BranchBoundSolver::Options(), &stats);
    maxsat::MaxSatResult direct =
        SolveWithIlpDirect(wcnf, ilp::BranchBoundSolver::Options());
    EXPECT_EQ(exact.feasible, cpa.feasible) << wcnf.ToString();
    EXPECT_EQ(exact.feasible, direct.feasible);
    if (exact.feasible) {
      EXPECT_NEAR(cpa.violated_weight, exact.violated_weight, 1e-6)
          << wcnf.ToString();
      EXPECT_NEAR(direct.violated_weight, exact.violated_weight, 1e-6)
          << wcnf.ToString();
    }
  }
}

TEST(CuttingPlane, ActivatesOnlyViolatedClauses) {
  // Units keep everything true; the lone hard clause is satisfied by that
  // state, so CPA must converge without activating it.
  maxsat::Wcnf wcnf(3);
  wcnf.AddSoft({maxsat::PosLit(0)}, 1.0);
  wcnf.AddSoft({maxsat::PosLit(1)}, 1.0);
  wcnf.AddSoft({maxsat::PosLit(2)}, 1.0);
  wcnf.AddHard({maxsat::PosLit(0), maxsat::PosLit(1)});
  CpaStats stats;
  maxsat::MaxSatResult result =
      SolveWithCpa(wcnf, ilp::BranchBoundSolver::Options(), &stats);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(stats.clauses_activated, 0u);
  EXPECT_EQ(stats.iterations, 1);
  EXPECT_NEAR(result.violated_weight, 0.0, 1e-9);
}

TEST(CuttingPlane, ActivatesConflictClauses) {
  // Two units in conflict: the hard clause IS violated by the all-true
  // greedy state, so CPA needs a second iteration.
  maxsat::Wcnf wcnf(2);
  wcnf.AddSoft({maxsat::PosLit(0)}, 0.9);
  wcnf.AddSoft({maxsat::PosLit(1)}, 0.6);
  wcnf.AddHard({maxsat::NegLit(0), maxsat::NegLit(1)});
  CpaStats stats;
  maxsat::MaxSatResult result =
      SolveWithCpa(wcnf, ilp::BranchBoundSolver::Options(), &stats);
  ASSERT_TRUE(result.feasible);
  EXPECT_GE(stats.iterations, 2);
  EXPECT_EQ(stats.clauses_activated, 1u);
  EXPECT_TRUE(result.assignment[0]);
  EXPECT_FALSE(result.assignment[1]);
}

TEST(MlnMapSolver, AllBackendsAgreeOnRunningExample) {
  // The exact per-component MaxSAT path against the paper's nRockIt
  // configuration (ILP + cutting planes) and a one-shot ILP, both on the
  // whole network.
  ground::GroundingResult grounding = GroundRunningExample();
  auto solution = MlnMapSolver(grounding.network).Solve();
  ASSERT_TRUE(solution.ok());
  EXPECT_TRUE(solution->feasible);
  EXPECT_TRUE(solution->optimal);
  const maxsat::Wcnf wcnf = BuildWcnf(grounding.network);
  const maxsat::MaxSatResult cpa =
      SolveWithCpa(wcnf, ilp::BranchBoundSolver::Options());
  const maxsat::MaxSatResult direct =
      SolveWithIlpDirect(wcnf, ilp::BranchBoundSolver::Options());
  for (const maxsat::MaxSatResult* reference : {&cpa, &direct}) {
    EXPECT_TRUE(reference->feasible);
    EXPECT_TRUE(reference->optimal);
    EXPECT_NEAR(reference->satisfied_weight, solution->objective, 1e-6);
  }
}

TEST(MlnMapSolver, MonolithicMatchesComponentwise) {
  ground::GroundingResult grounding = GroundRunningExample();
  MlnSolverOptions with;
  with.use_components = true;
  MlnSolverOptions without;
  without.use_components = false;
  auto a = MlnMapSolver(grounding.network, with).Solve();
  auto b = MlnMapSolver(grounding.network, without).Solve();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(a->objective, b->objective, 1e-6);
  EXPECT_GT(a->num_components, 1u);
}

TEST(MlnMapSolver, WalkSatBackendIsFeasibleOnRunningExample) {
  ground::GroundingResult grounding = GroundRunningExample();
  const maxsat::Wcnf wcnf = BuildWcnf(grounding.network);
  maxsat::WalkSatOptions options;
  options.max_flips = 50000;
  const maxsat::MaxSatResult result =
      maxsat::WalkSatSolver(wcnf, options).Solve();
  EXPECT_TRUE(result.feasible);
  EXPECT_FALSE(result.optimal);  // LS never proves optimality
}

}  // namespace
}  // namespace mln
}  // namespace tecore
