// The incremental re-solve determinism contract: after any batch of
// insertions and retractions, ApplyEdits must be *bit-identical* to a
// from-scratch run of the full pipeline on the edited KB — the maintained
// canonical ground network (atom layout, prior weights, clause list), the
// kept/removed fact sets, the derived facts, and the objective. Thread
// counts must not matter on either path.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "core/edits.h"
#include "core/resolver.h"
#include "datagen/generators.h"
#include "ground/components.h"
#include "ground/ground_network.h"
#include "ground/incremental.h"
#include "rdf/io.h"
#include "rules/library.h"
#include "rules/parser.h"
#include "util/random.h"
#include "util/string_util.h"

namespace tecore {
namespace {

/// Renders a network dictionary-independently: atoms by content (with
/// evidence flag and bit-exact prior), clauses by literal structure.
std::string RenderNetwork(const ground::GroundNetwork& net,
                          const rdf::Dictionary& dict) {
  std::string out;
  for (ground::AtomId id = 0; id < net.NumAtoms(); ++id) {
    const ground::GroundAtom& atom = net.atom(id);
    out += net.AtomToString(id, dict);
    out += StringPrintf(" prior=%s evid=%d\n",
                        FormatDoubleExact(atom.prior_weight).c_str(),
                        atom.is_evidence ? 1 : 0);
  }
  for (const ground::GroundClause& clause : net.clauses()) {
    out += clause.hard ? "hard" : "soft";
    out += StringPrintf(" w=%s rule=%d lits=",
                        FormatDoubleExact(clause.weight).c_str(),
                        clause.rule_index);
    for (int32_t lit : clause.literals) out += StringPrintf("%d,", lit);
    out += '\n';
  }
  return out;
}

/// Renders a component partition's layout: each component's atoms and
/// clause indices, in component order.
std::string RenderPartition(const ground::ComponentPartition& components) {
  std::string out;
  for (uint32_t c = 0; c < components.size(); ++c) {
    for (ground::AtomId atom : components.atoms(c)) {
      out += StringPrintf("%u,", atom);
    }
    out += '|';
    for (uint32_t ci : components.clauses(c)) out += StringPrintf("%u,", ci);
    out += '\n';
  }
  return out;
}

/// The carried partition must lay out exactly as partitioning the
/// maintained network from scratch would.
void ExpectPartitionCarriedExactly(const core::IncrementalResolver& resolver) {
  ground::ComponentPartition fresh;
  fresh.Build(resolver.network());
  EXPECT_EQ(RenderPartition(resolver.components()), RenderPartition(fresh));
}

/// Maps fact ids of a graph-with-tombstones to the ids the compacted graph
/// assigns (live rank), so flip sets compare across the two worlds.
std::vector<rdf::FactId> ToLiveRanks(const rdf::TemporalGraph& graph,
                                     const std::vector<rdf::FactId>& ids) {
  std::vector<rdf::FactId> out;
  out.reserve(ids.size());
  for (rdf::FactId id : ids) {
    out.push_back(static_cast<rdf::FactId>(graph.LiveRank(id)));
  }
  return out;
}

/// A from-scratch reference result with the graph it was solved on.
struct ScratchResolution {
  rdf::TemporalGraph graph;
  core::ResolveResult result;
};

void ExpectResolutionBitIdentical(const core::ResolveResult& incremental,
                                  const rdf::TemporalGraph& edited_graph,
                                  const ScratchResolution& reference) {
  const core::ResolveResult& scratch = reference.result;
  // The chunked columnar store must stay structurally sound under the
  // incremental pipeline's in-place mutations.
  Status invariants = edited_graph.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();
  EXPECT_EQ(incremental.objective, scratch.objective);  // bitwise
  EXPECT_EQ(incremental.feasible, scratch.feasible);
  EXPECT_EQ(incremental.optimal, scratch.optimal);
  EXPECT_EQ(incremental.ground_atoms, scratch.ground_atoms);
  EXPECT_EQ(incremental.ground_clauses, scratch.ground_clauses);
  EXPECT_EQ(incremental.num_components, scratch.num_components);
  EXPECT_EQ(incremental.largest_component, scratch.largest_component);
  EXPECT_EQ(ToLiveRanks(edited_graph, incremental.kept_facts),
            scratch.kept_facts);
  EXPECT_EQ(ToLiveRanks(edited_graph, incremental.removed_facts),
            scratch.removed_facts);
  ASSERT_EQ(incremental.derived_facts.size(), scratch.derived_facts.size());
  for (size_t i = 0; i < incremental.derived_facts.size(); ++i) {
    EXPECT_EQ(incremental.derived_facts[i].score,
              scratch.derived_facts[i].score);
    EXPECT_EQ(
        edited_graph.FactToString(incremental.derived_facts[i].fact),
        reference.graph.FactToString(scratch.derived_facts[i].fact));
  }
  // The repaired output graph must be byte-identical on disk.
  EXPECT_EQ(rdf::WriteGraphText(incremental.ConsistentGraph(edited_graph)),
            rdf::WriteGraphText(scratch.ConsistentGraph(reference.graph)));
}

/// From-scratch reference on the edited KB (compacted copy, so tombstones
/// cannot leak into the reference path).
ScratchResolution ScratchResolve(const rdf::TemporalGraph& graph,
                                 const rules::RuleSet& rules,
                                 const core::ResolveOptions& options) {
  ScratchResolution scratch{graph.CompactLive(), {}};
  core::Resolver resolver(&scratch.graph, rules, options);
  auto result = resolver.Run();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  scratch.result = std::move(*result);
  return scratch;
}

/// The from-scratch canonical network on the edited KB, rendered.
std::string ScratchNetworkRendering(const rdf::TemporalGraph& graph,
                                    const rules::RuleSet& rules,
                                    const ground::GroundingOptions& options) {
  rdf::TemporalGraph compact = graph.CompactLive();
  ground::GroundingOptions grounding = options;
  ground::Grounder grounder(&compact, rules, grounding);
  auto result = grounder.Run();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return RenderNetwork(result->network, compact.dict());
}

rules::RuleSet FootballRules(bool with_inference) {
  auto constraints = rules::FootballConstraints();
  EXPECT_TRUE(constraints.ok());
  rules::RuleSet rules = *constraints;
  if (with_inference) {
    auto inference = rules::FootballInferenceRules();
    EXPECT_TRUE(inference.ok());
    rules.Merge(*inference);
  }
  return rules;
}

/// One randomized edit batch: inserts new playsFor spells and retracts
/// random live facts. Deterministic via `rng`.
std::vector<core::GraphEdit> RandomBatch(rdf::TemporalGraph* graph, Rng* rng,
                                         size_t inserts, size_t retracts) {
  std::vector<core::GraphEdit> edits;
  for (size_t i = 0; i < inserts; ++i) {
    core::GraphEdit edit;
    edit.kind = core::GraphEdit::Kind::kInsert;
    const int64_t begin = 1990 + static_cast<int64_t>(rng->Uniform(25));
    const std::string player =
        "player" + std::to_string(rng->Uniform(200));
    const std::string team = "team" + std::to_string(rng->Uniform(16));
    // Random high-precision confidence: exercises exact round-tripping
    // and makes exact objective ties (which any solver may break by
    // enumeration order) measure-zero.
    const double conf =
        0.05 + 0.9 * (static_cast<double>(rng->Next() >> 11) * 0x1.0p-53);
    edit.fact = rdf::TemporalFact(
        graph->dict().InternIri(player), graph->dict().InternIri("playsFor"),
        graph->dict().InternIri(team),
        temporal::Interval(begin, begin + static_cast<int64_t>(
                                              rng->Uniform(6))),
        conf);
    edits.push_back(edit);
  }
  for (size_t i = 0; i < retracts && graph->NumLiveFacts() > 0; ++i) {
    // Pick a random live fact (facts inserted above are candidates too —
    // insert+retract of the same quad in one batch is a legal script).
    rdf::FactId id =
        static_cast<rdf::FactId>(rng->Uniform(graph->NumFacts()));
    while (!graph->is_live(id)) id = (id + 1) % graph->NumFacts();
    core::GraphEdit edit;
    edit.kind = core::GraphEdit::Kind::kRetract;
    edit.fact = graph->fact(id);
    // Avoid double-retracting the same quad within a batch (the second
    // application would match nothing and fail by design).
    bool duplicate = false;
    for (const core::GraphEdit& prev : edits) {
      if (prev.kind == core::GraphEdit::Kind::kRetract &&
          prev.fact.SameTriple(edit.fact) &&
          prev.fact.interval == edit.fact.interval) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) edits.push_back(edit);
  }
  return edits;
}

TEST(IncrementalResolve, RandomizedBatchesMatchFromScratch) {
  // Random edit batches through one incremental resolver; after every
  // batch it must match the from-scratch reference bit-for-bit — network
  // included.
  const rules::RuleSet rules = FootballRules(/*with_inference=*/true);
  datagen::FootballDbOptions gen;
  gen.num_players = 150;
  gen.num_teams = 16;
  datagen::GeneratedKg kg = datagen::GenerateFootballDb(gen);
  core::IncrementalResolver resolver(&kg.graph, rules,
                                     core::ResolveOptions());
  auto init = resolver.Initialize();
  ASSERT_TRUE(init.ok()) << init.status().ToString();

  Rng rng(20260730);
  for (int batch = 0; batch < 4; ++batch) {
    SCOPED_TRACE(StringPrintf("batch %d", batch));
    const std::vector<core::GraphEdit> edits =
        RandomBatch(&kg.graph, &rng, /*inserts=*/3, /*retracts=*/2);
    auto result = resolver.ApplyEdits(edits);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    ScratchResolution scratch =
        ScratchResolve(kg.graph, rules, core::ResolveOptions());
    ExpectResolutionBitIdentical(*result, kg.graph, scratch);
    EXPECT_EQ(RenderNetwork(resolver.network(), kg.graph.dict()),
              ScratchNetworkRendering(kg.graph, rules,
                                      ground::GroundingOptions()));
  }
}

TEST(IncrementalResolve, PureInsertionFastPathIsBitIdentical) {
  // Insert-only batches on a constraint-only rule set take the O(remap)
  // fast path (block rotation instead of full rebuild) — it must be just
  // as bit-identical as the general path, network layout included.
  const rules::RuleSet rules = FootballRules(/*with_inference=*/false);
  datagen::FootballDbOptions gen;
  gen.num_players = 120;
  datagen::GeneratedKg kg = datagen::GenerateFootballDb(gen);
  core::IncrementalResolver resolver(&kg.graph, rules,
                                     core::ResolveOptions());
  ASSERT_TRUE(resolver.Initialize().ok());
  const int kFans = 3000;
  const int kPairs = 20;

  Rng rng(99);
  for (int batch = 0; batch < 8; ++batch) {
    SCOPED_TRACE(batch);
    const size_t components_before = resolver.components().size();
    std::vector<core::GraphEdit> edits;
    if (batch < 7) {
      edits = RandomBatch(&kg.graph, &rng, /*inserts=*/4, /*retracts=*/0);
    }
    if (batch < 3) {
      // Two overlapping spells of a newcomer conflict only with each other:
      // new components only, but the conflict clause lands inside the
      // sorted rule block, so every later clause index shifts.
      for (int team = 0; team < 2; ++team) {
        core::GraphEdit edit;
        edit.kind = core::GraphEdit::Kind::kInsert;
        edit.fact = rdf::TemporalFact(
            kg.graph.dict().InternIri(StringPrintf("Newcomer%d", batch)),
            kg.graph.dict().InternIri("playsFor"),
            kg.graph.dict().InternIri(StringPrintf("NewTeam%d", team)),
            temporal::Interval(2000 + team, 2005 + team), 0.7);
        edits.push_back(edit);
      }
    } else if (batch < 7) {
      // A spell spanning a generated player's whole career conflicts with
      // each of the player's spells: the insert merges several carried
      // components into one and renumbers every component after them —
      // where the next batch's player (a later one) has its components.
      core::GraphEdit edit;
      edit.kind = core::GraphEdit::Kind::kInsert;
      edit.fact = rdf::TemporalFact(
          kg.graph.dict().InternIri(
              StringPrintf("Player%05d", 30 * batch - 80)),
          kg.graph.dict().InternIri("playsFor"),
          kg.graph.dict().InternIri(StringPrintf("WideTeam%d", batch)),
          temporal::Interval(1960, 2020), 0.4);
      edits.push_back(edit);
    } else {
      // One batch of a few thousand facts: mostly a predicate no rule
      // reads (one-atom components), plus newcomer pairs (two-atom
      // components). None reaches a carried component and all sort after
      // them, so the partition appends them in one pass over the batch.
      core::GraphEdit edit;
      edit.kind = core::GraphEdit::Kind::kInsert;
      for (int fan = 0; fan < kFans; ++fan) {
        const int64_t begin = 1980 + static_cast<int64_t>(rng.Uniform(30));
        edit.fact = rdf::TemporalFact(
            kg.graph.dict().InternIri(StringPrintf("Fan%04d", fan)),
            kg.graph.dict().InternIri("hobby"),
            kg.graph.dict().InternIri(StringPrintf("Hobby%d", fan % 50)),
            temporal::Interval(begin, begin + 3),
            0.05 + 0.9 * (static_cast<double>(rng.Next() >> 11) * 0x1.0p-53));
        edits.push_back(edit);
      }
      for (int pair = 0; pair < kPairs; ++pair) {
        for (int team = 0; team < 2; ++team) {
          edit.fact = rdf::TemporalFact(
              kg.graph.dict().InternIri(StringPrintf("Latecomer%02d", pair)),
              kg.graph.dict().InternIri("playsFor"),
              kg.graph.dict().InternIri(StringPrintf("NewTeam%d", team)),
              temporal::Interval(2000 + team, 2005 + team), 0.7);
          edits.push_back(edit);
        }
      }
    }
    auto result = resolver.ApplyEdits(edits);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(resolver.last_update_stats().fast_path);
    if (batch == 7) {
      EXPECT_EQ(resolver.components().size(),
                components_before + kFans + kPairs);
    }
    ExpectPartitionCarriedExactly(resolver);
    ScratchResolution scratch =
        ScratchResolve(kg.graph, rules, core::ResolveOptions());
    ExpectResolutionBitIdentical(*result, kg.graph, scratch);
    EXPECT_EQ(RenderNetwork(resolver.network(), kg.graph.dict()),
              ScratchNetworkRendering(kg.graph, rules,
                                      ground::GroundingOptions()));
  }
  // A later retraction (slow path) over fast-path-maintained state must
  // keep the contract too — the two paths have to compose.
  std::vector<core::GraphEdit> edits =
      RandomBatch(&kg.graph, &rng, /*inserts=*/1, /*retracts=*/3);
  auto result = resolver.ApplyEdits(edits);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ScratchResolution scratch =
      ScratchResolve(kg.graph, rules, core::ResolveOptions());
  ExpectResolutionBitIdentical(*result, kg.graph, scratch);
  EXPECT_EQ(RenderNetwork(resolver.network(), kg.graph.dict()),
            ScratchNetworkRendering(kg.graph, rules,
                                    ground::GroundingOptions()));
}

TEST(IncrementalResolve, FastPathWithDerivedBlockMatchesFromScratch) {
  // With inference rules the network has a derived block, so a fast-path
  // insert places its evidence atom in front of it and every derived id
  // shifts — and the carried component partition has to follow. A seeded
  // sequence cycles through four kinds of step: facts of a predicate no
  // rule reads (fast path, new components only), a second birth date far
  // in the past (fast path: its conflict clause merges the new atom into
  // the player's component), a duplicate-quad insert (merge, then
  // rebuild) and a retraction (rebuild). Every step must match a
  // from-scratch run bit-for-bit, for both backends.
  const rules::RuleSet rules = FootballRules(/*with_inference=*/true);
  datagen::FootballDbOptions gen;
  gen.num_players = 100;
  gen.num_teams = 10;

  struct Track {
    datagen::GeneratedKg kg;
    core::ResolveOptions options;
    std::unique_ptr<core::IncrementalResolver> resolver;
    int fast_steps = 0;
  };
  std::vector<std::unique_ptr<Track>> tracks;
  for (rules::SolverKind solver :
       {rules::SolverKind::kMln, rules::SolverKind::kPsl}) {
    auto track = std::make_unique<Track>();
    track->kg = datagen::GenerateFootballDb(gen);
    track->options.solver = solver;
    // The rules join most of the KB into one component; its exact MAP
    // would dominate the runtime, so it takes the (deterministic) WalkSAT
    // fallback on both paths.
    track->options.mln.exact_var_limit = 64;
    track->resolver = std::make_unique<core::IncrementalResolver>(
        &track->kg.graph, rules, track->options);
    auto init = track->resolver->Initialize();
    ASSERT_TRUE(init.ok()) << init.status().ToString();
    tracks.push_back(std::move(track));
  }
  ASSERT_LT(tracks[0]->resolver->network().NumEvidenceAtoms(),
            tracks[0]->resolver->network().NumAtoms());  // derived block

  Rng rng(20261017);
  const int kSteps = 12;
  for (int step = 0; step < kSteps; ++step) {
    // Build the step against track 0's graph and ship it as an edit
    // script, which every track parses against its own dictionary.
    rdf::TemporalGraph& graph0 = tracks[0]->kg.graph;
    std::vector<core::GraphEdit> edits;
    const int kind = step % 4;
    auto random_live = [&]() {
      rdf::FactId id = static_cast<rdf::FactId>(rng.Uniform(graph0.NumFacts()));
      while (!graph0.is_live(id)) id = (id + 1) % graph0.NumFacts();
      return graph0.fact(id);
    };
    auto confidence = [&]() {
      return 0.05 + 0.9 * (static_cast<double>(rng.Next() >> 11) * 0x1.0p-53);
    };
    core::GraphEdit edit;
    edit.kind = core::GraphEdit::Kind::kInsert;
    if (kind == 0) {
      // Fresh facts of a predicate no rule reads.
      const size_t count = 1 + rng.Uniform(3);
      for (size_t i = 0; i < count; ++i) {
        const int64_t begin = 1980 + static_cast<int64_t>(rng.Uniform(30));
        edit.fact = rdf::TemporalFact(
            graph0.dict().InternIri("player" +
                                    std::to_string(rng.Uniform(100))),
            graph0.dict().InternIri("hobby"),
            graph0.dict().InternIri("hobby" + std::to_string(step) + "_" +
                                    std::to_string(i)),
            temporal::Interval(begin, begin + 3), confidence());
        edits.push_back(edit);
      }
    } else if (kind == 1) {
      // A birth date too early for any career to make a TeenPlayer: it
      // only conflicts with the player's existing birth date(s).
      const std::vector<rdf::FactId> births =
          graph0.FactsWithPredicate(graph0.dict().InternIri("birthDate"));
      ASSERT_FALSE(births.empty());
      const rdf::TemporalFact birth =
          graph0.fact(births[rng.Uniform(births.size())]);
      const int64_t year = 1900 - step;
      edit.fact = rdf::TemporalFact(
          birth.subject, birth.predicate,
          graph0.dict().Intern(rdf::Term::IntLiteral(year)),
          temporal::Interval(year, 2017), confidence());
      edits.push_back(edit);
    } else if (kind == 2) {
      // A second fact with the quad of a live one: its prior merges.
      edit.fact = random_live();
      edit.fact.confidence = confidence();
      edits.push_back(edit);
    } else {
      edit.kind = core::GraphEdit::Kind::kRetract;
      edit.fact = random_live();
      edits.push_back(edit);
    }
    const std::string script = core::EditScriptToText(edits, graph0);

    std::vector<core::ResolveResult> results;
    for (std::unique_ptr<Track>& track : tracks) {
      auto local = core::ParseEditScript(script, &track->kg.graph);
      ASSERT_TRUE(local.ok()) << local.status().ToString();
      auto result = track->resolver->ApplyEdits(*local);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const bool fast = track->resolver->last_update_stats().fast_path;
      EXPECT_EQ(fast, kind <= 1) << "step " << step;
      ExpectPartitionCarriedExactly(*track->resolver);
      track->fast_steps += fast ? 1 : 0;
      results.push_back(std::move(*result));
    }
    const std::string scratch_net =
        ScratchNetworkRendering(graph0, rules, ground::GroundingOptions());
    for (size_t t = 0; t < tracks.size(); ++t) {
      SCOPED_TRACE(StringPrintf("step %d track %zu", step, t));
      ScratchResolution scratch =
          ScratchResolve(tracks[t]->kg.graph, rules, tracks[t]->options);
      ExpectResolutionBitIdentical(results[t], tracks[t]->kg.graph, scratch);
      EXPECT_EQ(RenderNetwork(tracks[t]->resolver->network(),
                              tracks[t]->kg.graph.dict()),
                scratch_net);
    }
  }
  for (const std::unique_ptr<Track>& track : tracks) {
    EXPECT_GE(4 * track->fast_steps, kSteps);
  }
}

TEST(IncrementalResolve, RetractAndRederiveInOneBatch) {
  // DRed resurrection: the only fact deriving a worksFor atom is retracted
  // while another fact deriving the same atom is inserted in the same
  // batch — the sweep must keep the atom alive through the new support.
  const rules::RuleSet rules = FootballRules(/*with_inference=*/true);
  auto graph = rdf::ParseGraphText(R"(
    CR playsFor Palermo [1984,1986] 0.5 .
    Palermo locatedIn Italy [1900,2020] 1.0 .
  )");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  rdf::TemporalGraph kg = std::move(*graph);

  core::IncrementalResolver resolver(&kg, rules, core::ResolveOptions());
  auto init = resolver.Initialize();
  ASSERT_TRUE(init.ok()) << init.status().ToString();
  ASSERT_FALSE(init->derived_facts.empty());  // worksFor/livesIn derived

  auto edits = core::ParseEditScript(R"(
    - CR playsFor Palermo [1984,1986] .
    + CR playsFor Palermo [1984,1986] 0.7 .
  )",
                                     &kg);
  ASSERT_TRUE(edits.ok()) << edits.status().ToString();
  auto result = resolver.ApplyEdits(*edits);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ScratchResolution scratch =
      ScratchResolve(kg, rules, core::ResolveOptions());
  ExpectResolutionBitIdentical(*result, kg, scratch);
  EXPECT_EQ(RenderNetwork(resolver.network(), kg.dict()),
            ScratchNetworkRendering(kg, rules, ground::GroundingOptions()));
}

TEST(IncrementalResolve, DuplicateQuadSupportMergesAndSplits) {
  // Two facts share a quad (their priors merge into one evidence atom);
  // retracting one must leave the atom alive with the other's prior,
  // bit-exactly as a fresh run would seed it.
  const rules::RuleSet rules = FootballRules(/*with_inference=*/false);
  auto graph = rdf::ParseGraphText(R"(
    CR coach Chelsea [2000,2004] 0.9 .
    CR coach Chelsea [2000,2004] 0.6 .
    CR coach Napoli [2001,2003] 0.6 .
  )");
  ASSERT_TRUE(graph.ok());
  rdf::TemporalGraph kg = std::move(*graph);
  core::IncrementalResolver resolver(&kg, rules, core::ResolveOptions());
  ASSERT_TRUE(resolver.Initialize().ok());

  // Retraction by quad tombstones *both* duplicates; re-insert one.
  auto edits = core::ParseEditScript(R"(
    - CR coach Chelsea [2000,2004] .
    + CR coach Chelsea [2000,2004] 0.6 .
  )",
                                     &kg);
  ASSERT_TRUE(edits.ok()) << edits.status().ToString();
  auto result = resolver.ApplyEdits(*edits);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(kg.NumLiveFacts(), 2u);

  ScratchResolution scratch =
      ScratchResolve(kg, rules, core::ResolveOptions());
  ExpectResolutionBitIdentical(*result, kg, scratch);
  EXPECT_EQ(RenderNetwork(resolver.network(), kg.dict()),
            ScratchNetworkRendering(kg, rules, ground::GroundingOptions()));
}

TEST(IncrementalResolve, PslBackendSplicesToo) {
  const rules::RuleSet rules = FootballRules(/*with_inference=*/false);
  datagen::FootballDbOptions gen;
  gen.num_players = 100;
  datagen::GeneratedKg kg = datagen::GenerateFootballDb(gen);

  core::ResolveOptions options;
  options.solver = rules::SolverKind::kPsl;
  core::IncrementalResolver resolver(&kg.graph, rules, options);
  ASSERT_TRUE(resolver.Initialize().ok());

  Rng rng(7);
  auto edits = RandomBatch(&kg.graph, &rng, 2, 2);
  auto result = resolver.ApplyEdits(edits);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->spliced_components, 0u);

  ScratchResolution scratch = ScratchResolve(kg.graph, rules, options);
  ExpectResolutionBitIdentical(*result, kg.graph, scratch);
}

TEST(IncrementalResolve, EngineAppliesEditScriptsAndSplices) {
  api::Engine engine;
  datagen::FootballDbOptions gen;
  gen.num_players = 200;
  ASSERT_TRUE(
      engine.SetGraph(std::move(datagen::GenerateFootballDb(gen).graph)).ok());
  ASSERT_TRUE(engine.AddRules(FootballRules(/*with_inference=*/false)).ok());

  core::ResolveOptions options;
  auto first = engine.ApplyEditScript(
      "+ playerX playsFor teamY [2001,2005] 0.85 .\n", options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Second edit: nearly every component is clean and spliced.
  auto second = engine.ApplyEditScript(
      "+ playerX playsFor teamZ [2003,2007] 0.4 . # overlapping spell\n",
      options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const core::ResolveResult& spliced = *second->result;
  EXPECT_GT(spliced.spliced_components, 0u);
  EXPECT_LT(spliced.dirty_components, spliced.num_components / 4 + 8);

  const rdf::TemporalGraph& graph = *second->snapshot->graph;
  ScratchResolution scratch =
      ScratchResolve(graph, *second->snapshot->rules, options);
  ExpectResolutionBitIdentical(spliced, graph, scratch);

  // Retracting a fact that does not exist is a script error — and the
  // batch is atomic: the valid insert before the bad retract must NOT
  // leak into the writer's graph.
  const rdf::TemporalGraph* writer = engine.graph_for_tests();
  const size_t live_before = writer->NumLiveFacts();
  const uint64_t epoch_before = writer->edit_epoch();
  auto bad = engine.ApplyEditScript(
      "+ playerY playsFor teamQ [1999,2001] 0.5 .\n"
      "- nosuch fact here [1,2] .\n",
      options);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(writer->NumLiveFacts(), live_before);
  EXPECT_EQ(writer->edit_epoch(), epoch_before);
  // Retract-after-insert of the same quad within one batch is legal.
  auto churn = engine.ApplyEditScript(
      "+ playerY playsFor teamQ [1999,2001] 0.5 .\n"
      "- playerY playsFor teamQ [1999,2001] .\n",
      options);
  ASSERT_TRUE(churn.ok()) << churn.status().ToString();
  EXPECT_EQ(churn->snapshot->graph->NumLiveFacts(), live_before);
}

TEST(IncrementalResolve, EditScriptParsing) {
  rdf::TemporalGraph graph;
  auto edits = core::ParseEditScript(R"(
    # comment line
    + a p b [1,5] 0.75 .
    - c p d [2]      # retract, trailing comment
  )",
                                     &graph);
  ASSERT_TRUE(edits.ok()) << edits.status().ToString();
  ASSERT_EQ(edits->size(), 2u);
  EXPECT_EQ((*edits)[0].kind, core::GraphEdit::Kind::kInsert);
  EXPECT_DOUBLE_EQ((*edits)[0].fact.confidence, 0.75);
  EXPECT_EQ((*edits)[1].kind, core::GraphEdit::Kind::kRetract);
  EXPECT_EQ((*edits)[1].fact.interval, temporal::Interval(2, 2));

  auto bad = core::ParseEditScript("a p b [1,2] .\n", &graph);
  EXPECT_FALSE(bad.ok());  // missing +/- prefix
}

}  // namespace
}  // namespace tecore
