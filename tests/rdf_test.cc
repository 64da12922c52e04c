#include <gtest/gtest.h>

#include <algorithm>

#include "rdf/dictionary.h"
#include "rdf/graph.h"
#include "rdf/io.h"

namespace tecore {
namespace rdf {
namespace {

TEST(Term, KindsAndToString) {
  EXPECT_EQ(Term::Iri("CR").ToString(), "CR");
  EXPECT_EQ(Term::IntLiteral(1951).ToString(), "1951");
  EXPECT_EQ(Term::Literal("a \"b\"").ToString(), "\"a \\\"b\\\"\"");
  EXPECT_EQ(Term::Blank("n1").ToString(), "_:n1");
  EXPECT_TRUE(Term::IntLiteral(5).is_int());
  EXPECT_EQ(Term::IntLiteral(-7).int_value(), -7);
  // Same lexical form, different kinds -> different terms.
  EXPECT_NE(Term::Iri("1951"), Term::IntLiteral(1951));
}

TEST(Dictionary, InterningIsIdempotent) {
  Dictionary dict;
  TermId a = dict.InternIri("coach");
  TermId b = dict.InternIri("coach");
  TermId c = dict.InternIri("playsFor");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(dict.Size(), 2u);
  EXPECT_EQ(dict.Lookup(a).lexical(), "coach");
}

TEST(Dictionary, FindDoesNotIntern) {
  Dictionary dict;
  EXPECT_FALSE(dict.FindIri("nope").ok());
  EXPECT_EQ(dict.Size(), 0u);
  dict.InternIri("yes");
  EXPECT_TRUE(dict.FindIri("yes").ok());
}

TEST(Dictionary, PrefixCompletion) {
  Dictionary dict;
  dict.InternIri("playsFor");
  dict.InternIri("playedIn");
  dict.InternIri("coach");
  dict.Intern(Term::Literal("plays"));  // literal: not offered
  auto hits = dict.CompleteIri("play");
  EXPECT_EQ(hits.size(), 2u);
}

TEST(TemporalGraph, AddAndIndexes) {
  TemporalGraph g;
  auto f1 = g.AddQuad("CR", "coach", "Chelsea", temporal::Interval(2000, 2004),
                      0.9);
  auto f2 = g.AddQuad("CR", "coach", "Napoli", temporal::Interval(2001, 2003),
                      0.6);
  auto f3 = g.AddQuad("CR", "playsFor", "Palermo",
                      temporal::Interval(1984, 1986), 0.5);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  ASSERT_TRUE(f3.ok());
  EXPECT_EQ(g.NumFacts(), 3u);

  TermId coach = *g.dict().FindIri("coach");
  TermId cr = *g.dict().FindIri("CR");
  EXPECT_EQ(g.FactsWithPredicate(coach).size(), 2u);
  EXPECT_EQ(g.FactsWithSubject(cr).size(), 3u);
  EXPECT_EQ(g.FactsWithSubjectPredicate(cr, coach).size(), 2u);
  EXPECT_TRUE(g.FactsWithPredicate(9999).empty());
}

TEST(TemporalGraph, RejectsBadConfidence) {
  TemporalGraph g;
  EXPECT_FALSE(
      g.AddQuad("a", "p", "b", temporal::Interval(0, 1), 0.0).ok());
  EXPECT_FALSE(
      g.AddQuad("a", "p", "b", temporal::Interval(0, 1), 1.5).ok());
  EXPECT_TRUE(
      g.AddQuad("a", "p", "b", temporal::Interval(0, 1), 1.0).ok());
}

TEST(TemporalGraph, PredicateCountsSorted) {
  TemporalGraph g;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(g.AddQuad("s" + std::to_string(i), "playsFor", "T",
                          temporal::Interval(0, 1), 0.9)
                    .ok());
  }
  ASSERT_TRUE(
      g.AddQuad("s0", "birthDate", Term::IntLiteral(1980),
                temporal::Interval(1980, 2017), 1.0)
          .ok());
  auto counts = g.PredicateCounts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0].second, 3u);  // playsFor first (most frequent)
}

TEST(TemporalGraph, FilterRebuildsCompactGraph) {
  TemporalGraph g;
  ASSERT_TRUE(g.AddQuad("a", "p", "b", temporal::Interval(0, 1), 0.9).ok());
  ASSERT_TRUE(g.AddQuad("c", "q", "d", temporal::Interval(2, 3), 0.8).ok());
  ASSERT_TRUE(g.AddQuad("e", "p", "f", temporal::Interval(4, 5), 0.7).ok());
  TemporalGraph filtered = g.Filter({true, false, true});
  EXPECT_EQ(filtered.NumFacts(), 2u);
  // Dictionary is rebuilt: the filtered graph resolves its own ids.
  EXPECT_TRUE(filtered.dict().FindIri("a").ok());
  EXPECT_FALSE(filtered.dict().FindIri("c").ok());
  EXPECT_EQ(filtered.FactToString(0).substr(0, 2), "(a");
}

TEST(RdfIo, ParsesTheRunningExample) {
  auto graph = ParseGraphText(R"(
    # Fig. 1 of the paper
    CR coach Chelsea [2000,2004] 0.9 .
    CR coach Leicester [2015,2017] 0.7 .
    CR playsFor Palermo [1984,1986] 0.5 .
    CR birthDate 1951 [1951,2017] 1.0 .
    CR coach Napoli [2001,2003] 0.6 .
  )");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->NumFacts(), 5u);
  const TemporalFact& birth = graph->fact(3);
  EXPECT_TRUE(graph->dict().Lookup(birth.object).is_int());
  EXPECT_EQ(graph->dict().Lookup(birth.object).int_value(), 1951);
  EXPECT_EQ(birth.interval, temporal::Interval(1951, 2017));
}

TEST(RdfIo, HandlesStringsPointsAndDefaults) {
  auto graph = ParseGraphText(R"(
    CR label "Claudio Ranieri, the coach" [1951] .
    CR knows _:someone [2000,2001]
  )");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->NumFacts(), 2u);
  EXPECT_EQ(graph->fact(0).interval, temporal::Interval(1951, 1951));
  EXPECT_DOUBLE_EQ(graph->fact(1).confidence, 1.0);  // default
  EXPECT_EQ(graph->dict().Lookup(graph->fact(0).object).kind(),
            TermKind::kLiteral);
  EXPECT_EQ(graph->dict().Lookup(graph->fact(1).object).kind(),
            TermKind::kBlank);
}

TEST(RdfIo, ReportsLineNumbersOnErrors) {
  auto graph = ParseGraphText("CR coach Chelsea [2000,2004] 0.9 .\nbroken\n");
  EXPECT_FALSE(graph.ok());
  EXPECT_NE(graph.status().message().find("line 2"), std::string::npos);
}

TEST(RdfIo, RejectsNonIriPredicate) {
  auto graph = ParseGraphText("CR \"coach\" Chelsea [2000,2004] 0.9 .");
  EXPECT_FALSE(graph.ok());
}

TEST(RdfIo, WriteParseRoundTrip) {
  auto graph = ParseGraphText(R"(
    CR coach Chelsea [2000,2004] 0.9 .
    CR birthDate 1951 [1951,2017] 1.0 .
    CR label "Mister 5,000 volts" [1951,2017] 0.5 .
  )");
  ASSERT_TRUE(graph.ok());
  std::string text = WriteGraphText(*graph);
  auto reparsed = ParseGraphText(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << text;
  ASSERT_EQ(reparsed->NumFacts(), graph->NumFacts());
  for (FactId id = 0; id < graph->NumFacts(); ++id) {
    EXPECT_EQ(graph->FactToString(id), reparsed->FactToString(id));
  }
}

TEST(RdfIo, CommentStripperTracksEscapes) {
  // Regression: a literal ending in an escaped backslash used to leave the
  // comment stripper "inside" the string, so the trailing comment became a
  // parse error.
  auto graph = ParseGraphText(
      "CR label \"ends with \\\\\" [1,2] 0.5 . # trailing comment\n"
      "CR label \"a \\\" # not a comment\" [3,4] . # real comment\n"
      "CR label \"inline # hash\" [5] .\n");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ASSERT_EQ(graph->NumFacts(), 3u);
  EXPECT_EQ(graph->dict().Lookup(graph->fact(0).object).lexical(),
            "ends with \\");
  EXPECT_EQ(graph->dict().Lookup(graph->fact(1).object).lexical(),
            "a \" # not a comment");
  EXPECT_EQ(graph->dict().Lookup(graph->fact(2).object).lexical(),
            "inline # hash");
}

TEST(RdfIo, AttachedStatementTerminator) {
  // Regression: the '.' terminator attached to the interval (the examples'
  // style) used to fail with "expected 's p o [b,e] [conf]'".
  auto graph = ParseGraphText(
      "CR coach Chelsea [2000,2004].\n"
      "CR coach Leicester [2015,2017] 0.7.\n"
      "CR label \"dot inside.\" [1,2] .\n");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ASSERT_EQ(graph->NumFacts(), 3u);
  EXPECT_EQ(graph->fact(0).interval, temporal::Interval(2000, 2004));
  EXPECT_DOUBLE_EQ(graph->fact(1).confidence, 0.7);
  // A quoted literal keeps its dot.
  EXPECT_EQ(graph->dict().Lookup(graph->fact(2).object).lexical(),
            "dot inside.");
}

TEST(RdfIo, ConfidenceRoundTripIsExact) {
  // Regression: "%g" wrote 6 significant digits, silently perturbing
  // confidences (and with them resolution objectives) on save/load.
  TemporalGraph g;
  const double confidences[] = {0.123456789, 0.1 + 0.2 - 0.2,
                                0.9999999999999999, 1e-9, 1.0,
                                0x1.23456789abcdep-1};
  for (double conf : confidences) {
    ASSERT_TRUE(g.AddQuad("s", "p", "o" + std::to_string(g.NumFacts()),
                          temporal::Interval(0, 1), conf)
                    .ok());
  }
  auto reparsed = ParseGraphText(WriteGraphText(g));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->NumFacts(), g.NumFacts());
  for (FactId id = 0; id < g.NumFacts(); ++id) {
    // Bit-exact, not approximately equal.
    EXPECT_EQ(g.fact(id).confidence, reparsed->fact(id).confidence)
        << "fact " << id;
  }
}

TEST(RdfIo, RoundTripIsBitExact) {
  // The full contract: Parse(Write(g)) reproduces every fact bit-exactly —
  // escaped quotes/backslashes, '#' inside strings, negative times,
  // single-point intervals, high-precision confidences.
  auto graph = ParseGraphText(
      "CR label \"quote \\\" backslash \\\\ both \\\\\\\"\" [1,2] "
      "0.123456789012345678 .\n"
      "CR label \"# looks like a comment\" [-40,-2] 0.6 .\n"
      "era began _:b0 [-4000] 0.25 .\n"
      "CR coach Chelsea [2000,2004] 0.9000000000000001 .\n"
      "CR birthDate 1951 [1951] .\n");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  const std::string text = WriteGraphText(*graph);
  auto reparsed = ParseGraphText(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << text;
  ASSERT_EQ(reparsed->NumFacts(), graph->NumFacts());
  for (FactId id = 0; id < graph->NumFacts(); ++id) {
    const TemporalFact& a = graph->fact(id);
    const TemporalFact& b = reparsed->fact(id);
    EXPECT_EQ(graph->dict().Lookup(a.subject), reparsed->dict().Lookup(b.subject));
    EXPECT_EQ(graph->dict().Lookup(a.predicate),
              reparsed->dict().Lookup(b.predicate));
    EXPECT_EQ(graph->dict().Lookup(a.object), reparsed->dict().Lookup(b.object));
    EXPECT_EQ(a.interval, b.interval);
    EXPECT_EQ(a.confidence, b.confidence);  // bitwise
  }
  // Writing the reparsed graph must reproduce the text byte-for-byte (the
  // serializer is a fixed point).
  EXPECT_EQ(WriteGraphText(*reparsed), text);
}

TEST(TemporalGraph, RetractTombstonesAndKeepsIdsStable) {
  TemporalGraph g;
  ASSERT_TRUE(g.AddQuad("a", "p", "b", temporal::Interval(0, 1), 0.9).ok());
  ASSERT_TRUE(g.AddQuad("c", "p", "d", temporal::Interval(2, 3), 0.8).ok());
  ASSERT_TRUE(g.AddQuad("e", "q", "f", temporal::Interval(4, 5), 0.7).ok());
  const uint64_t epoch = g.edit_epoch();
  ASSERT_TRUE(g.Retract(1).ok());
  EXPECT_GT(g.edit_epoch(), epoch);
  EXPECT_EQ(g.NumFacts(), 3u);       // ids stay stable
  EXPECT_EQ(g.NumLiveFacts(), 2u);   // iteration skips the tombstone
  EXPECT_FALSE(g.is_live(1));
  EXPECT_TRUE(g.is_live(2));
  EXPECT_EQ(g.LiveRank(2), 1u);
  // Indexes drop the fact...
  TermId p = *g.dict().FindIri("p");
  EXPECT_EQ(g.FactsWithPredicate(p).size(), 1u);
  // ...and serialization skips it.
  EXPECT_EQ(WriteGraphText(g).find("c p d"), std::string::npos);
  // Double-retract and out-of-range are errors.
  EXPECT_FALSE(g.Retract(1).ok());
  EXPECT_FALSE(g.Retract(99).ok());
  // CompactLive renumbers densely.
  TemporalGraph compact = g.CompactLive();
  EXPECT_EQ(compact.NumFacts(), 2u);
  EXPECT_EQ(compact.FactToString(1).substr(0, 2), "(e");
}

TEST(TemporalGraph, ClonePreservesIdsAndTombstones) {
  TemporalGraph g;
  auto a = g.AddQuad("CR", "coach", "Chelsea", {2000, 2004}, 0.9);
  auto b = g.AddQuad("CR", "coach", "Napoli", {2001, 2003}, 0.6);
  auto c = g.AddQuad("CR", "playsFor", "Palermo", {1984, 1986}, 0.5);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(g.Retract(*b).ok());

  TemporalGraph copy = g.Clone();
  ASSERT_EQ(copy.NumFacts(), g.NumFacts());
  EXPECT_EQ(copy.NumLiveFacts(), g.NumLiveFacts());
  EXPECT_EQ(copy.edit_epoch(), g.edit_epoch());
  EXPECT_EQ(copy.dict().Size(), g.dict().Size());
  for (TermId id = 0; id < g.dict().Size(); ++id) {
    EXPECT_EQ(copy.dict().Lookup(id), g.dict().Lookup(id));
  }
  for (FactId id = 0; id < g.NumFacts(); ++id) {
    EXPECT_EQ(copy.is_live(id), g.is_live(id));
    EXPECT_EQ(copy.FactToString(id), g.FactToString(id));
  }
  // Indexes were copied too (retracted fact stays dropped).
  EXPECT_EQ(copy.FactsWithPredicate(*g.dict().FindIri("coach")).size(), 1u);

  // The clone is independent: mutating it leaves the original alone.
  ASSERT_TRUE(copy.AddQuad("CR", "coach", "Leicester", {2015, 2017}, 0.7).ok());
  EXPECT_EQ(copy.NumFacts(), g.NumFacts() + 1);
  EXPECT_EQ(g.NumFacts(), 3u);
}

TEST(RdfIo, FileRoundTrip) {
  auto graph = ParseGraphText("CR coach Chelsea [2000,2004] 0.9 .\n");
  ASSERT_TRUE(graph.ok());
  const std::string path = ::testing::TempDir() + "/tecore_io_test.tq";
  ASSERT_TRUE(SaveGraphFile(*graph, path).ok());
  auto loaded = LoadGraphFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumFacts(), 1u);
  EXPECT_FALSE(LoadGraphFile("/nonexistent/path.tq").ok());
}

}  // namespace
}  // namespace rdf
}  // namespace tecore
