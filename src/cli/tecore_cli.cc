// tecore-cli — non-interactive command-line front end.
//
// The demo paper exposes TeCoRe through a Web UI; this binary exposes the
// same operations for scripts and CI, as a thin shell over the same
// thread-safe api::Engine the server uses:
//
//   tecore-cli stats    --graph g.tq
//   tecore-cli complete --graph g.tq --prefix pla
//   tecore-cli validate --rules r.tcr --solver psl
//   tecore-cli detect   --graph g.tq --rules r.tcr
//   tecore-cli solve    --graph g.tq --rules r.tcr --solver mln
//                       [--threshold 0.5] [--out repaired.tq]
//                       [--edits script.tq]
//   tecore-cli mine     --graph g.tq [--out rules.tcr] [--min-support N]
//                       [--min-confidence X] [--max-patterns N]
//   tecore-cli suggest  --graph g.tq   (mine at the default options)
//   tecore-cli gen      --dataset football|wikidata|example --out g.tq [--size N]
//   tecore-cli serve    [--port 8080] [--threads N] [--kb name] [--graph g.tq]
//                       [--rules r.tcr] [--auth-token-file f]
//                       [--data-dir d] [--fsync always|never]
//   tecore-cli kb verify --data-dir d [--kb name]
//   tecore-cli version  (also: --version)
//
// `--edits` applies a KG edit script (lines `+ <fact>` / `- <fact>`) after
// an initial solve and re-solves incrementally: only the connected
// components the edits dirty are re-solved, cached MAP states are spliced
// for the rest, and the result is bit-identical to re-running the full
// pipeline on the edited KG.
//
// `serve` starts the JSON-over-HTTP service (same flags as the
// tecore-server binary; see docs/api.md for the /v1 endpoint reference).
//
// `kb verify` is the offline integrity check for a --data-dir store: it
// re-verifies every checkpoint checksum and WAL record CRC without
// modifying anything, and reports the version recovery would restore
// (docs/durability.md). Exit 0 = clean, 1 = integrity problems.
//
// Unknown subcommands and unknown or valueless flags are errors (usage to
// stderr, exit 2); structural failures exit 1.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/version.h"
#include "datagen/generators.h"
#include "mine/miner.h"
#include "rdf/io.h"
#include "rules/library.h"
#include "rules/parser.h"
#include "server/serve.h"
#include "storage/fs.h"
#include "storage/verify.h"
#include "util/file.h"
#include "util/string_util.h"

using namespace tecore;  // NOLINT

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: tecore-cli "
               "<stats|complete|suggest|mine|validate|detect|solve|gen|serve"
               "|kb|version>\n"
               "                  [--graph f] [--rules f] [--solver mln|psl]"
               " [--threshold x] [--edits f]\n"
               "                  [--out f] [--dataset d] [--size n]"
               " [--prefix p]\n"
               "  mine               mine temporal constraints from the KB"
               " itself and emit them as a\n"
               "                     weighted .tcr rule file (--graph g.tq"
               " [--out f.tcr] [--min-support n]\n"
               "                     [--min-confidence x] [--max-patterns n];"
               " docs/mining.md)\n"
               "  suggest            print what mine prints at its default"
               " options (--graph g.tq)\n"
               "  --edits f          solve, then apply the edit script"
               " ('+ fact' inserts, '- fact' retracts)\n"
               "                     and re-solve incrementally (only dirty"
               " components are re-solved)\n"
               "  results are bit-identical for incremental vs full"
               " re-solve\n"
               "  serve              start the multi-tenant /v1 JSON HTTP"
               " service ([--host h] [--port n]\n"
               "                     [--threads n] [--kb name]"
               " [--auth-token-file f]\n"
               "                     [--kb-tokens-file f] [--data-dir d]"
               " [--fsync always|never]\n"
               "                     [--max-body-bytes n] [--retain n]\n"
               "                     [--access-log[=f]];"
               " docs/api.md, docs/observability.md)\n"
               "  kb verify          check a --data-dir store offline:"
               " checkpoint and WAL\n"
               "                     checksums plus the recoverable version"
               " per KB\n"
               "                     (--data-dir d [--kb name];"
               " docs/durability.md)\n"
               "  version | --version  print the release version\n");
  return 2;
}

int PrintVersion() {
  std::printf("tecore-cli %s (api v%d)\n", api::kTecoreVersion,
              api::kApiMajorVersion);
  return 0;
}

/// Strict base-10 count flag parser; returns false on any garbage and on
/// negative values (which would wrap as a size_t).
bool ParseCountFlag(const std::string& value, size_t* out) {
  int64_t parsed = 0;
  if (!ParseInt64(value, &parsed) || parsed < 0) return false;
  *out = static_cast<size_t>(parsed);
  return true;
}

/// Minimal --key value argument parser, strict: every argument must be a
/// known `--flag value` pair. Returns false (after printing the problem)
/// on unknown flags, bare words, or a flag without a value.
bool ParseFlags(int argc, char** argv, int first,
                std::initializer_list<const char*> known,
                std::map<std::string, std::string>* flags) {
  const std::set<std::string> known_set(known.begin(), known.end());
  for (int i = first; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "unexpected argument '%s'\n", argv[i]);
      return false;
    }
    const std::string name = argv[i] + 2;
    if (known_set.count(name) == 0) {
      std::fprintf(stderr, "unknown flag '--%s'\n", name.c_str());
      return false;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for '--%s'\n", name.c_str());
      return false;
    }
    (*flags)[name] = argv[++i];
  }
  return true;
}

Status LoadInputs(const std::map<std::string, std::string>& flags,
                  api::Engine* engine, bool need_rules) {
  auto graph_it = flags.find("graph");
  if (graph_it == flags.end()) {
    return Status::InvalidArgument("--graph is required");
  }
  TECORE_RETURN_NOT_OK(engine->LoadGraphFile(graph_it->second).status());
  if (need_rules) {
    auto rules_it = flags.find("rules");
    if (rules_it == flags.end()) {
      return Status::InvalidArgument("--rules is required");
    }
    TECORE_ASSIGN_OR_RETURN(parsed, rules::LoadRulesFile(rules_it->second));
    TECORE_RETURN_NOT_OK(engine->AddRules(parsed).status());
  }
  return Status::OK();
}

/// `mine` and `suggest`: mine `--graph` and print (or write `--out`) the
/// canonical `.tcr` document.
int RunMine(std::map<std::string, std::string>& flags) {
  auto graph_it = flags.find("graph");
  if (graph_it == flags.end()) {
    std::fprintf(stderr, "--graph is required\n");
    return Usage();
  }
  mine::MiningOptions options;
  if (flags.count("min-support") &&
      !ParseCountFlag(flags["min-support"], &options.min_support)) {
    std::fprintf(stderr, "invalid --min-support value '%s'\n",
                 flags["min-support"].c_str());
    return 2;
  }
  if (flags.count("min-confidence") &&
      (!ParseDouble(flags["min-confidence"], &options.min_confidence) ||
       options.min_confidence < 0.0 || options.min_confidence > 1.0)) {
    std::fprintf(stderr, "invalid --min-confidence value '%s'\n",
                 flags["min-confidence"].c_str());
    return 2;
  }
  if (flags.count("max-patterns") &&
      !ParseCountFlag(flags["max-patterns"], &options.max_patterns)) {
    std::fprintf(stderr, "invalid --max-patterns value '%s'\n",
                 flags["max-patterns"].c_str());
    return 2;
  }
  auto graph = rdf::LoadGraphFile(graph_it->second);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  const mine::MiningReport report = mine::Miner(options).Mine(*graph);
  const std::string text = mine::WriteMinedRulesText(report, options);
  if (!flags.count("out")) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  Status saved = util::WriteStringToFile(flags["out"], text);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("mined %zu rule(s) from %zu predicate(s), wrote %s\n",
              report.rules.size(), report.predicates_profiled,
              flags["out"].c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];

  if (command == "version" || command == "--version") return PrintVersion();
  if (command == "--help" || command == "-h" || command == "help") {
    Usage();
    return 0;
  }
  if (command == "serve") {
    // serve owns its flag set (shared with the tecore-server binary).
    return server::RunServe(argc, argv, 2);
  }
  if (command == "kb") {
    if (argc < 3 || std::strcmp(argv[2], "verify") != 0) {
      std::fprintf(stderr, "unknown kb subcommand%s%s\n",
                   argc >= 3 ? " " : "", argc >= 3 ? argv[2] : "");
      return Usage();
    }
    std::map<std::string, std::string> kb_flags;
    if (!ParseFlags(argc, argv, 3, {"data-dir", "kb"}, &kb_flags)) {
      return Usage();
    }
    auto dir_it = kb_flags.find("data-dir");
    if (dir_it == kb_flags.end()) {
      std::fprintf(stderr, "--data-dir is required\n");
      return Usage();
    }
    const std::string kbs_dir = storage::JoinPath(dir_it->second, "kbs");
    std::vector<std::string> names;
    if (kb_flags.count("kb")) {
      names.push_back(kb_flags["kb"]);
    } else if (storage::IsDirectory(kbs_dir)) {
      auto listed = storage::ListDir(kbs_dir);
      if (!listed.ok()) {
        std::fprintf(stderr, "%s\n", listed.status().ToString().c_str());
        return 1;
      }
      for (const std::string& name : *listed) {
        if (storage::IsDirectory(storage::JoinPath(kbs_dir, name))) {
          names.push_back(name);
        }
      }
    }
    size_t problem_count = 0;
    for (const std::string& name : names) {
      auto report = storage::VerifyKbDir(storage::JoinPath(kbs_dir, name));
      if (!report.ok()) {
        std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
        return 1;
      }
      std::printf("kb '%s': %s\n", name.c_str(),
                  report->ok() ? "OK" : "CORRUPT");
      if (report->has_checkpoint) {
        std::printf("  checkpoint: version %llu\n",
                    (unsigned long long)report->checkpoint_version);
      } else {
        std::printf("  checkpoint: none\n");
      }
      std::printf("  wal: %llu record(s), %llu/%llu byte(s) intact%s\n",
                  (unsigned long long)report->wal_records,
                  (unsigned long long)report->wal_valid_bytes,
                  (unsigned long long)report->wal_file_bytes,
                  report->wal_torn_tail ? ", torn tail (recovery truncates)"
                                        : "");
      std::printf("  recoverable version: %llu\n",
                  (unsigned long long)report->recoverable_version);
      for (const std::string& problem : report->problems) {
        std::printf("  problem: %s\n", problem.c_str());
      }
      problem_count += report->problems.size();
    }
    std::printf("%zu kb(s) verified, %zu problem(s)\n", names.size(),
                problem_count);
    return problem_count == 0 ? 0 : 1;
  }

  std::map<std::string, std::string> flags;
  api::Engine engine;

  if (command == "gen") {
    if (!ParseFlags(argc, argv, 2, {"dataset", "size", "out"}, &flags)) {
      return Usage();
    }
    const std::string dataset =
        flags.count("dataset") ? flags["dataset"] : "football";
    size_t size = 0;
    if (flags.count("size") && !ParseCountFlag(flags["size"], &size)) {
      std::fprintf(stderr, "invalid --size value '%s'\n",
                   flags["size"].c_str());
      return 2;
    }
    rdf::TemporalGraph graph;
    if (dataset == "football") {
      datagen::FootballDbOptions options;
      if (size > 0) options.num_players = size;
      graph = std::move(datagen::GenerateFootballDb(options).graph);
    } else if (dataset == "wikidata") {
      datagen::WikidataOptions options;
      if (size > 0) options.target_facts = size;
      graph = std::move(datagen::GenerateWikidata(options).graph);
    } else if (dataset == "example") {
      graph = datagen::RunningExampleGraph(true);
    } else {
      std::fprintf(stderr, "unknown dataset '%s'\n", dataset.c_str());
      return 2;
    }
    if (!flags.count("out")) {
      std::fputs(rdf::WriteGraphText(graph).c_str(), stdout);
      return 0;
    }
    Status saved = rdf::SaveGraphFile(graph, flags["out"]);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu facts to %s\n", graph.NumFacts(),
                flags["out"].c_str());
    return 0;
  }

  if (command == "stats") {
    if (!ParseFlags(argc, argv, 2, {"graph"}, &flags)) return Usage();
    Status st = LoadInputs(flags, &engine, /*need_rules=*/false);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    auto stats = engine.GraphStats();
    std::printf("%s\n", stats->ToString().c_str());
    return 0;
  }

  if (command == "suggest") {
    if (!ParseFlags(argc, argv, 2, {"graph"}, &flags)) return Usage();
    return RunMine(flags);
  }

  if (command == "mine") {
    if (!ParseFlags(argc, argv, 2,
                    {"graph", "out", "min-support", "min-confidence",
                     "max-patterns"},
                    &flags)) {
      return Usage();
    }
    return RunMine(flags);
  }

  if (command == "complete") {
    if (!ParseFlags(argc, argv, 2, {"graph", "prefix"}, &flags)) {
      return Usage();
    }
    Status st = LoadInputs(flags, &engine, false);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    for (const std::string& name : engine.snapshot()->CompletePredicate(
             flags.count("prefix") ? flags["prefix"] : "")) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  if (command == "validate") {
    if (!ParseFlags(argc, argv, 2, {"rules", "solver"}, &flags)) {
      return Usage();
    }
    auto rules_it = flags.find("rules");
    if (rules_it == flags.end()) return Usage();
    auto parsed = rules::LoadRulesFile(rules_it->second);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 1;
    }
    rules::SolverKind solver = flags.count("solver") && flags["solver"] == "psl"
                                   ? rules::SolverKind::kPsl
                                   : rules::SolverKind::kMln;
    auto problems = rules::CollectProblems(*parsed, solver);
    for (const std::string& problem : problems) {
      std::printf("%s\n", problem.c_str());
    }
    std::printf("%zu rule(s), %zu problem(s)\n", parsed->Size(),
                problems.size());
    return problems.empty() ? 0 : 1;
  }

  if (command == "detect") {
    if (!ParseFlags(argc, argv, 2, {"graph", "rules"}, &flags)) {
      return Usage();
    }
    Status st = LoadInputs(flags, &engine, /*need_rules=*/true);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    const auto snap = engine.snapshot();
    auto report = snap->DetectConflicts();
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", (*report)->StatsPanel(*snap->rules).c_str());
    return 0;
  }

  if (command == "solve") {
    if (!ParseFlags(argc, argv, 2,
                    {"graph", "rules", "solver", "threshold", "edits", "out"},
                    &flags)) {
      return Usage();
    }
    core::ResolveOptions options;
    if (flags.count("solver") && flags["solver"] == "psl") {
      options.solver = rules::SolverKind::kPsl;
    }
    if (flags.count("threshold") &&
        !ParseDouble(flags["threshold"], &options.derived_threshold)) {
      std::fprintf(stderr, "invalid --threshold value '%s'\n",
                   flags["threshold"].c_str());
      return 2;
    }
    Status st = LoadInputs(flags, &engine, /*need_rules=*/true);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    // Either way the outcome pairs the result with the snapshot it was
    // solved on, whose graph `--out` materializes the repaired KG against.
    auto run = [&]() -> Result<api::SolveOutcome> {
      if (!flags.count("edits")) return engine.Solve(options);
      // The engine parses and applies the script atomically under its
      // writer lock, seeding the incremental state with a full solve.
      TECORE_ASSIGN_OR_RETURN(script,
                              util::ReadFileToString(flags["edits"]));
      std::printf("applying edit script %s (incremental re-solve)\n",
                  flags["edits"].c_str());
      TECORE_ASSIGN_OR_RETURN(edited, engine.ApplyEditScript(script, options));
      return api::SolveOutcome{edited.version, /*cached=*/false, edited.result,
                               edited.snapshot};
    };
    auto solved = run();
    if (!solved.ok()) {
      std::fprintf(stderr, "%s\n", solved.status().ToString().c_str());
      return 1;
    }
    const core::ResolveResult& result = *solved->result;
    std::printf("%s", result.StatsPanel().c_str());
    if (flags.count("out")) {
      const rdf::TemporalGraph repaired =
          result.ConsistentGraph(*solved->snapshot->graph);
      Status saved = rdf::SaveGraphFile(repaired, flags["out"]);
      if (!saved.ok()) {
        std::fprintf(stderr, "%s\n", saved.ToString().c_str());
        return 1;
      }
      std::printf("wrote repaired KG (%zu facts) to %s\n",
                  repaired.NumFacts(), flags["out"].c_str());
    }
    return result.feasible ? 0 : 1;
  }

  std::fprintf(stderr, "unknown subcommand '%s'\n", command.c_str());
  return Usage();
}
