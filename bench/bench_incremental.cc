// Incremental re-solve vs the full pipeline on KG edits.
//
// The demo workflow is interactive — edit the KG, recompute the most
// probable conflict-free KG — so the number that matters is the cost of a
// *small edit*, not a cold start. This bench applies edit batches of
// growing size to the teammate-join workload and compares
// IncrementalResolver::ApplyEdits (delta grounding + dirty-component
// re-solve with MAP-state splicing) against a from-scratch Resolver::Run
// on the edited KB, asserting the two agree bit-exactly on the objective.
//
// A second workload replays the service's interactive edit: one insert of
// a predicate no rule reads (a team's `locatedIn`) under the constraint
// rules, which takes the grounding fast path, and reports where each edit's
// time goes (delta grounding, fast-path placement, solve, assembly). It
// runs at 2,000 and 20,000 players: a one-fact edit should cost about the
// same at both sizes.
//
// `--json out.json` writes the measurements machine-readably
// (BENCH_incremental.json, every record with `hw_threads`); `--smoke`
// shrinks the workload for CI.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/edits.h"
#include "core/resolver.h"
#include "datagen/generators.h"
#include "rules/library.h"
#include "rules/parser.h"
#include "util/bench_json.h"
#include "util/csv.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {
using namespace tecore;  // NOLINT

/// Constraints + the teammates join through the shared club: the join
/// couples players of one team into one component, so a single-fact edit
/// dirties one team's component and leaves the rest spliceable.
Result<rules::RuleSet> TeammateJoinRules() {
  TECORE_ASSIGN_OR_RETURN(constraints, rules::FootballConstraints());
  TECORE_ASSIGN_OR_RETURN(probe, rules::ParseRules(R"(
    teammate_overlap:
      quad(x, playsFor, y, t) & quad(x2, playsFor, y, t')
      [x != x2, overlaps(t, t'), duration(t) > 6] -> false  w = 0.05 .
  )"));
  rules::RuleSet rules = constraints;
  rules.Merge(probe);
  return rules;
}

std::vector<core::GraphEdit> MakeBatch(rdf::TemporalGraph* graph, Rng* rng,
                                       size_t batch_size) {
  std::vector<core::GraphEdit> edits;
  for (size_t i = 0; i < batch_size; ++i) {
    core::GraphEdit edit;
    if (i % 2 == 0 || graph->NumLiveFacts() == 0) {
      edit.kind = core::GraphEdit::Kind::kInsert;
      const int64_t begin = 1985 + static_cast<int64_t>(rng->Uniform(30));
      edit.fact = rdf::TemporalFact(
          graph->dict().InternIri("player" +
                                  std::to_string(rng->Uniform(100000))),
          graph->dict().InternIri("playsFor"),
          graph->dict().InternIri("team" + std::to_string(rng->Uniform(48))),
          temporal::Interval(begin, begin + static_cast<int64_t>(
                                               rng->Uniform(9))),
          0.3 + 0.0001 * static_cast<double>(rng->Uniform(6000)));
    } else {
      rdf::FactId id =
          static_cast<rdf::FactId>(rng->Uniform(graph->NumFacts()));
      while (!graph->is_live(id)) id = (id + 1) % graph->NumFacts();
      edit.kind = core::GraphEdit::Kind::kRetract;
      edit.fact = graph->fact(id);
      // A retraction tombstones every live match of its quad, so a second
      // retraction of the same quad in one batch would match nothing and
      // fail the script by design — skip duplicates.
      bool duplicate = false;
      for (const core::GraphEdit& prev : edits) {
        if (prev.kind == core::GraphEdit::Kind::kRetract &&
            prev.fact.SameTriple(edit.fact) &&
            prev.fact.interval == edit.fact.interval) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
    }
    edits.push_back(edit);
  }
  return edits;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Distinct lexical objects of `predicate` facts, in first-seen order.
std::vector<std::string> ObjectsOf(const rdf::TemporalGraph& graph,
                                   const std::string& predicate) {
  std::vector<std::string> out;
  for (rdf::FactId id = 0; id < graph.NumFacts(); ++id) {
    const rdf::TemporalFact f = graph.fact(id);
    if (graph.dict().Lookup(f.predicate).lexical() != predicate) continue;
    const std::string& object = graph.dict().Lookup(f.object).lexical();
    if (std::find(out.begin(), out.end(), object) == out.end()) {
      out.push_back(object);
    }
  }
  return out;
}

/// The service's interactive edit: single `locatedIn` inserts under the
/// constraint rules (which never read `locatedIn`). Every edit takes the
/// grounding fast path; the record splits the edit into delta grounding,
/// fast-path placement ("rebuild_ms"), solve, and assembly (partition
/// update, kept/removed lists).
bool RunRelocations(size_t players, int edits, BenchJson* json) {
  auto rules = rules::FootballConstraints();
  if (!rules.ok()) return false;
  datagen::FootballDbOptions gen;
  gen.num_players = players;
  datagen::GeneratedKg kg = datagen::GenerateFootballDb(gen);
  const std::vector<std::string> teams = ObjectsOf(kg.graph, "playsFor");
  const std::vector<std::string> cities = ObjectsOf(kg.graph, "locatedIn");
  if (teams.empty() || cities.empty()) return false;

  const core::ResolveOptions options;
  core::IncrementalResolver incremental(&kg.graph, *rules, options);
  if (!incremental.Initialize().ok()) return false;

  Rng rng(20261017);
  std::vector<double> total_ms, ground_ms, place_ms, solve_ms, assemble_ms;
  size_t fast = 0, dirty = 0;
  double objective = 0.0;
  for (int i = 0; i < edits; ++i) {
    const int64_t begin = 1985 + static_cast<int64_t>(rng.Uniform(30));
    core::GraphEdit edit;
    edit.kind = core::GraphEdit::Kind::kInsert;
    edit.fact = rdf::TemporalFact(
        kg.graph.dict().InternIri(teams[rng.Uniform(teams.size())]),
        kg.graph.dict().InternIri("locatedIn"),
        kg.graph.dict().InternIri(cities[rng.Uniform(cities.size())]),
        temporal::Interval(begin,
                           begin + static_cast<int64_t>(rng.Uniform(9))),
        0.3 + 0.0001 * static_cast<double>(rng.Uniform(6000)));
    Timer timer;
    auto result = incremental.ApplyEdits({edit});
    const double ms = timer.ElapsedMillis();
    if (!result.ok()) return false;
    const ground::IncrementalUpdateStats& stats =
        incremental.last_update_stats();
    fast += stats.fast_path ? 1 : 0;
    dirty += result->dirty_components;
    objective = result->objective;
    total_ms.push_back(ms);
    ground_ms.push_back(stats.delta_ground_ms);
    place_ms.push_back(stats.rebuild_ms);
    solve_ms.push_back(result->solve_time_ms);
    assemble_ms.push_back(ms - stats.delta_ground_ms - stats.rebuild_ms -
                          result->solve_time_ms);
  }
  rdf::TemporalGraph scratch_graph = kg.graph.CompactLive();
  Timer full_timer;
  core::Resolver resolver(&scratch_graph, *rules, options);
  auto full = resolver.Run();
  if (!full.ok()) return false;
  const double full_ms = full_timer.ElapsedMillis();
  const bool match = full->objective == objective;

  const double n = static_cast<double>(edits);
  std::printf("relocation inserts (%d): p50 %.3f ms = ground "
              "%.3f + place %.3f + solve %.3f + assemble %.3f; fast path "
              "%zu/%d; full pipeline %.1f ms; objective %s\n\n",
              edits, Median(total_ms), Median(ground_ms), Median(place_ms),
              Median(solve_ms), Median(assemble_ms), fast, edits, full_ms,
              match ? "equal" : "DIFFERS");
  json->NewRecord(StringPrintf("incremental/players=%zu/relocate", players));
  json->Metric("hw_threads", util::HardwareThreads());
  json->Metric("edits", n);
  json->Metric("fast_path_frac", static_cast<double>(fast) / n);
  json->Metric("incremental_ms", Median(total_ms));
  json->Metric("delta_ground_ms", Median(ground_ms));
  json->Metric("rebuild_ms", Median(place_ms));
  json->Metric("solve_ms", Median(solve_ms));
  json->Metric("assemble_ms", Median(assemble_ms));
  json->Metric("dirty_components", static_cast<double>(dirty) / n);
  json->Metric("full_ms", full_ms);
  json->Metric("objective_match", match ? 1.0 : 0.0);
  return match && fast == static_cast<size_t>(edits);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "usage: bench_incremental [--json out] [--smoke]\n");
        return 2;
      }
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  BenchJson json("bench_incremental");

  std::printf("=== incremental re-solve vs full pipeline (teammate join) ===\n\n");

  auto rules = TeammateJoinRules();
  if (!rules.ok()) {
    std::fprintf(stderr, "%s\n", rules.status().ToString().c_str());
    return 1;
  }

  const size_t players = smoke ? 400 : 2000;
  const std::vector<size_t> batch_sizes =
      smoke ? std::vector<size_t>{1, 8}
            : std::vector<size_t>{1, 4, 16, 64, 256};

  datagen::FootballDbOptions gen;
  gen.num_players = players;
  datagen::GeneratedKg kg = datagen::GenerateFootballDb(gen);

  core::ResolveOptions options;
  // Multi-spell players bridge teams into one mega-component whose exact
  // branch & bound dwarfs everything else; cap the exact solver so that
  // component takes the WalkSAT fallback (deterministic, and identical on
  // both paths) and the bench measures pipeline structure instead.
  options.mln.exact_var_limit = 256;
  core::IncrementalResolver incremental(&kg.graph, *rules, options);
  Timer init_timer;
  auto init = incremental.Initialize();
  if (!init.ok()) {
    std::fprintf(stderr, "%s\n", init.status().ToString().c_str());
    return 1;
  }
  const double init_ms = init_timer.ElapsedMillis();
  std::printf("initial solve: %zu facts, %zu components, %.1f ms\n\n",
              kg.graph.NumLiveFacts(), init->num_components, init_ms);
  const double hw_threads = util::HardwareThreads();
  json.NewRecord(StringPrintf("incremental/players=%zu/initial", players));
  json.Metric("hw_threads", hw_threads);
  json.Metric("facts", static_cast<double>(kg.graph.NumLiveFacts()));
  json.Metric("time_ms", init_ms);

  Table table({"edit batch", "full ms", "incremental ms", "speedup",
               "spliced/re-solved", "objective (equal)"});
  Rng rng(20260730);
  bool all_match = true;
  double single_edit_speedup = 0.0;
  for (size_t batch_size : batch_sizes) {
    std::vector<core::GraphEdit> edits = MakeBatch(&kg.graph, &rng,
                                                   batch_size);
    Timer inc_timer;
    auto inc = incremental.ApplyEdits(edits);
    if (!inc.ok()) {
      std::fprintf(stderr, "%s\n", inc.status().ToString().c_str());
      return 1;
    }
    const double inc_ms = inc_timer.ElapsedMillis();

    // From-scratch reference on the edited KB (compacted copy: same facts,
    // dense ids — exactly what a cold load would parse).
    rdf::TemporalGraph scratch_graph = kg.graph.CompactLive();
    Timer full_timer;
    core::Resolver resolver(&scratch_graph, *rules, options);
    auto full = resolver.Run();
    if (!full.ok()) {
      std::fprintf(stderr, "%s\n", full.status().ToString().c_str());
      return 1;
    }
    const double full_ms = full_timer.ElapsedMillis();

    const bool match = inc->objective == full->objective &&
                       inc->kept_facts.size() == full->kept_facts.size() &&
                       inc->ground_clauses == full->ground_clauses;
    all_match = all_match && match;
    const double speedup = full_ms / inc_ms;
    if (batch_size == 1) single_edit_speedup = speedup;
    table.AddRow({std::to_string(batch_size), StringPrintf("%.1f", full_ms),
                  StringPrintf("%.1f", inc_ms),
                  StringPrintf("%.1fx", speedup),
                  StringPrintf("%zu/%zu", inc->spliced_components,
                               inc->dirty_components),
                  match ? "yes" : "NO"});
    json.NewRecord(StringPrintf("incremental/players=%zu/batch=%zu", players,
                                batch_size));
    json.Metric("hw_threads", hw_threads);
    json.Metric("batch", static_cast<double>(batch_size));
    json.Metric("full_ms", full_ms);
    json.Metric("incremental_ms", inc_ms);
    json.Metric("speedup", speedup);
    json.Metric("spliced_components",
                static_cast<double>(inc->spliced_components));
    json.Metric("dirty_components",
                static_cast<double>(inc->dirty_components));
    json.Metric("objective_match", match ? 1.0 : 0.0);
  }
  std::printf("%s\n", table.ToAscii().c_str());
  const std::vector<size_t> relocate_players =
      smoke ? std::vector<size_t>{players} : std::vector<size_t>{2000, 20000};
  for (size_t n : relocate_players) {
    all_match = RunRelocations(n, smoke ? 16 : 64, &json) && all_match;
  }
  std::printf("shape (incremental bit-identical to full pipeline): %s\n",
              all_match ? "MATCH" : "MISMATCH");
  std::printf("shape (single-fact edit >= 5x faster than full): %s "
              "(%.1fx)\n",
              single_edit_speedup >= 5.0 ? "MATCH" : "MISMATCH",
              single_edit_speedup);

  if (!json_path.empty() && !json.WriteFile(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return all_match ? 0 : 1;
}
