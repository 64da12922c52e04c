#include <gtest/gtest.h>

#include "core/resolver.h"
#include "datagen/generators.h"
#include "rules/library.h"
#include "rdf/temporal_ops.h"
#include "temporal/interval_set.h"
#include "util/random.h"

namespace tecore {
namespace rdf {
namespace {

using temporal::Interval;

TEST(Coalesce, MergesOverlappingAndAdjacentSpells) {
  TemporalGraph graph;
  ASSERT_TRUE(graph.AddQuad("CR", "coach", "Chelsea", Interval(2000, 2002), 0.8)
                  .ok());
  ASSERT_TRUE(graph.AddQuad("CR", "coach", "Chelsea", Interval(2002, 2004), 0.9)
                  .ok());
  ASSERT_TRUE(graph.AddQuad("CR", "coach", "Chelsea", Interval(2005, 2006), 0.7)
                  .ok());  // adjacent in discrete time
  ASSERT_TRUE(graph.AddQuad("CR", "coach", "Chelsea", Interval(2010, 2011), 0.6)
                  .ok());  // separate spell
  size_t merged = 0;
  TemporalGraph out = Coalesce(graph, CoalesceConfidence::kMax, &merged);
  EXPECT_EQ(out.NumFacts(), 2u);
  EXPECT_EQ(merged, 2u);
  EXPECT_EQ(out.fact(0).interval, Interval(2000, 2006));
  EXPECT_DOUBLE_EQ(out.fact(0).confidence, 0.9);  // max policy
  EXPECT_EQ(out.fact(1).interval, Interval(2010, 2011));
}

TEST(Coalesce, NoisyOrBoostsConfidence) {
  TemporalGraph graph;
  ASSERT_TRUE(graph.AddQuad("a", "p", "b", Interval(0, 5), 0.5).ok());
  ASSERT_TRUE(graph.AddQuad("a", "p", "b", Interval(3, 8), 0.5).ok());
  TemporalGraph out = Coalesce(graph, CoalesceConfidence::kNoisyOr);
  ASSERT_EQ(out.NumFacts(), 1u);
  EXPECT_DOUBLE_EQ(out.fact(0).confidence, 0.75);  // 1 - 0.5*0.5
}

TEST(Coalesce, DistinctTriplesStaySeparate) {
  TemporalGraph graph;
  ASSERT_TRUE(graph.AddQuad("a", "p", "b", Interval(0, 5), 0.9).ok());
  ASSERT_TRUE(graph.AddQuad("a", "p", "c", Interval(0, 5), 0.9).ok());
  ASSERT_TRUE(graph.AddQuad("a", "q", "b", Interval(0, 5), 0.9).ok());
  TemporalGraph out = Coalesce(graph);
  EXPECT_EQ(out.NumFacts(), 3u);
}

TEST(Coalesce, CoversSameTimePointsProperty) {
  // Property: per triple, the coalesced graph covers exactly the same
  // time points as the input (IntervalSet as the reference model).
  Rng rng(5150);
  for (int trial = 0; trial < 30; ++trial) {
    TemporalGraph graph;
    const int spells = 2 + static_cast<int>(rng.Uniform(10));
    temporal::IntervalSet model;
    for (int i = 0; i < spells; ++i) {
      int64_t b = rng.UniformRange(0, 60);
      Interval iv(b, b + rng.UniformRange(0, 12));
      model.Add(iv);
      ASSERT_TRUE(graph.AddQuad("s", "p", "o", iv, 0.9).ok());
    }
    TemporalGraph out = Coalesce(graph);
    temporal::IntervalSet coalesced;
    for (const TemporalFact& f : out.facts()) coalesced.Add(f.interval);
    EXPECT_EQ(coalesced, model);
    // Canonical form: exactly as many facts as maximal intervals.
    EXPECT_EQ(out.NumFacts(), model.Size());
  }
}

TEST(DiffGraphs, DetectsRemovalsAdditionsAndRescores) {
  TemporalGraph before;
  ASSERT_TRUE(before.AddQuad("a", "p", "b", Interval(0, 5), 0.9).ok());
  ASSERT_TRUE(before.AddQuad("a", "p", "c", Interval(1, 4), 0.6).ok());
  TemporalGraph after;
  ASSERT_TRUE(after.AddQuad("a", "p", "b", Interval(0, 5), 0.95).ok());
  ASSERT_TRUE(after.AddQuad("a", "q", "d", Interval(2, 3), 0.8).ok());
  GraphDiff diff = DiffGraphs(before, after);
  ASSERT_EQ(diff.removed.size(), 1u);   // (a,p,c)
  ASSERT_EQ(diff.added.size(), 1u);     // (a,q,d)
  ASSERT_EQ(diff.rescored.size(), 1u);  // (a,p,b) 0.9 -> 0.95
  EXPECT_DOUBLE_EQ(diff.rescored[0].first.confidence, 0.9);
  EXPECT_DOUBLE_EQ(diff.rescored[0].second.confidence, 0.95);
}

TEST(DiffGraphs, RepairDiffMatchesResolverBookkeeping) {
  // End-to-end: diff(input, repaired) must equal the resolver's
  // removed/derived lists.
  rdf::TemporalGraph graph = datagen::RunningExampleGraph(false);
  auto constraints = rules::PaperConstraints();
  ASSERT_TRUE(constraints.ok());
  core::ResolveOptions options;
  core::Resolver resolver(&graph, *constraints, options);
  auto result = resolver.Run();
  ASSERT_TRUE(result.ok());
  GraphDiff diff = DiffGraphs(graph, result->ConsistentGraph(graph));
  EXPECT_EQ(diff.removed.size(), result->removed_facts.size());
  EXPECT_EQ(diff.added.size(), result->derived_facts.size());
}

TEST(TemporalCoverage, ComputesCoveredDurations) {
  TemporalGraph graph;
  ASSERT_TRUE(graph.AddQuad("a", "p", "b", Interval(0, 4), 0.9).ok());
  ASSERT_TRUE(graph.AddQuad("c", "p", "d", Interval(3, 6), 0.9).ok());
  ASSERT_TRUE(graph.AddQuad("a", "q", "b", Interval(10, 10), 0.9).ok());
  auto coverage = TemporalCoverage(graph);
  ASSERT_EQ(coverage.size(), 2u);
  // p covers [0,6] = 7 points, q covers 1 point.
  EXPECT_EQ(coverage[0].second, 7);
  EXPECT_EQ(coverage[1].second, 1);
  EXPECT_EQ(graph.dict().Lookup(coverage[0].first).lexical(), "p");
}

}  // namespace
}  // namespace rdf
}  // namespace tecore
