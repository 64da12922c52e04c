#include <gtest/gtest.h>

#include <cmath>

#include "datagen/generators.h"
#include "kb/statistics.h"
#include "kb/weighting.h"

namespace tecore {
namespace kb {
namespace {

TEST(Weighting, LogOddsBasics) {
  EXPECT_NEAR(ConfidenceToWeight(0.5), 0.0, 1e-12);
  EXPECT_NEAR(ConfidenceToWeight(0.9), std::log(9.0), 1e-9);
  EXPECT_LT(ConfidenceToWeight(0.1), 0.0);
  // Certainty clamps instead of going infinite.
  EXPECT_LE(ConfidenceToWeight(1.0), kMaxLogOdds + 1e-12);
  EXPECT_GE(ConfidenceToWeight(0.0), -kMaxLogOdds - 1e-12);
}

TEST(Weighting, SigmoidInvertsLogOdds) {
  for (double c : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    EXPECT_NEAR(WeightToConfidence(ConfidenceToWeight(c)), c, 1e-9) << c;
  }
}

TEST(Statistics, RunningExampleNumbers) {
  rdf::TemporalGraph graph = datagen::RunningExampleGraph(false);
  GraphStatistics stats = ComputeStatistics(graph);
  EXPECT_EQ(stats.num_facts, 5u);
  EXPECT_EQ(stats.num_distinct_subjects, 1u);   // CR
  EXPECT_EQ(stats.num_distinct_predicates, 3u); // coach/playsFor/birthDate
  EXPECT_EQ(stats.num_distinct_objects, 5u);
  EXPECT_EQ(stats.min_time, 1951);
  EXPECT_EQ(stats.max_time, 2017);
  EXPECT_NEAR(stats.mean_confidence, (0.9 + 0.7 + 0.5 + 1.0 + 0.6) / 5.0,
              1e-12);
  // Most frequent predicate first.
  EXPECT_EQ(stats.predicate_counts[0].first, "coach");
  EXPECT_EQ(stats.predicate_counts[0].second, 3u);
}

TEST(Statistics, ConfidenceHistogramBins) {
  rdf::TemporalGraph graph;
  ASSERT_TRUE(graph.AddQuad("a", "p", "b", temporal::Interval(0, 1), 0.05).ok());
  ASSERT_TRUE(graph.AddQuad("a", "p", "c", temporal::Interval(0, 1), 0.10).ok());
  ASSERT_TRUE(graph.AddQuad("a", "p", "d", temporal::Interval(0, 1), 0.95).ok());
  ASSERT_TRUE(graph.AddQuad("a", "p", "e", temporal::Interval(0, 1), 1.00).ok());
  GraphStatistics stats = ComputeStatistics(graph);
  EXPECT_EQ(stats.confidence_histogram[0], 2u);  // (0, 0.1]
  EXPECT_EQ(stats.confidence_histogram[9], 2u);  // (0.9, 1]
  size_t total = 0;
  for (size_t bin : stats.confidence_histogram) total += bin;
  EXPECT_EQ(total, graph.NumFacts());
}

TEST(Statistics, EmptyGraph) {
  rdf::TemporalGraph graph;
  GraphStatistics stats = ComputeStatistics(graph);
  EXPECT_EQ(stats.num_facts, 0u);
  EXPECT_EQ(stats.min_time, 0);
  EXPECT_EQ(stats.max_time, 0);
  EXPECT_EQ(stats.mean_confidence, 0.0);
  // Rendering must not crash on the empty case.
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(Statistics, ReportMentionsKeyNumbers) {
  rdf::TemporalGraph graph = datagen::RunningExampleGraph(false);
  std::string report = ComputeStatistics(graph).ToString();
  EXPECT_NE(report.find("coach"), std::string::npos);
  EXPECT_NE(report.find("[1951, 2017]"), std::string::npos);
}

}  // namespace
}  // namespace kb
}  // namespace tecore
