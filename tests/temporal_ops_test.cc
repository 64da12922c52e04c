#include <gtest/gtest.h>

#include "core/resolver.h"
#include "datagen/generators.h"
#include "rules/library.h"
#include "rdf/temporal_ops.h"

namespace tecore {
namespace rdf {
namespace {

using temporal::Interval;

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

}  // namespace
}  // namespace rdf
}  // namespace tecore
