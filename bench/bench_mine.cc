// Constraint-mining throughput and determinism over synthetic FootballDB.
//
// Measures the new src/mine/ pass at several KB sizes: mining wall time,
// candidates considered vs rules emitted, and whether the noisy
// `playsFor` disjointness the generator plants ranks first by support.
// Also times the .tq load, and asserts the miner's determinism contract:
// mining the same graph again renders a byte-identical `.tcr` document.
//
// `--json out.json` writes the measurements (BENCH_mining.json, every
// record with `hw_threads`); `--smoke` shrinks the workload for CI.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "datagen/generators.h"
#include "mine/miner.h"
#include "rdf/io.h"
#include "util/bench_json.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace tecore;  // NOLINT

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "usage: bench_mine [--json out] [--smoke]\n");
        return 2;
      }
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }

  const std::vector<size_t> sizes =
      smoke ? std::vector<size_t>{500, 2000}
            : std::vector<size_t>{2000, 6500, 20000};
  BenchJson json("mining");
  const double hw_threads = util::HardwareThreads();
  Table table({"players", "facts", "load ms", "mine ms", "considered",
               "emitted", "top rule", "deterministic"});
  bool shape_ok = true;

  for (size_t players : sizes) {
    datagen::FootballDbOptions gen;
    gen.num_players = players;
    rdf::TemporalGraph graph =
        std::move(datagen::GenerateFootballDb(gen).graph);
    const std::string text = rdf::WriteGraphText(graph);

    Timer serial_timer;
    auto serial = rdf::ParseGraphText(text);
    const double serial_ms = serial_timer.ElapsedMillis();
    if (!serial.ok()) {
      std::fprintf(stderr, "%s\n", serial.status().ToString().c_str());
      return 1;
    }

    mine::MiningOptions options;
    Timer mine_timer;
    const mine::MiningReport report = mine::Miner(options).Mine(*serial);
    const double mine_ms = mine_timer.ElapsedMillis();
    const std::string canonical =
        mine::WriteMinedRulesText(report, options);

    // Determinism: a second pass renders the same document.
    const bool deterministic =
        mine::WriteMinedRulesText(mine::Miner(options).Mine(*serial),
                                  options) == canonical;

    const std::string top_rule =
        report.rules.empty() ? "(none)" : report.rules.front().rule.name;
    const bool top_is_disjoint = top_rule == "disjoint_playsFor";
    shape_ok = shape_ok && deterministic && top_is_disjoint;

    table.AddRow({std::to_string(players),
                  std::to_string(serial->NumLiveFacts()),
                  StringPrintf("%.1f", serial_ms),
                  StringPrintf("%.1f", mine_ms),
                  std::to_string(report.patterns_considered),
                  std::to_string(report.rules.size()), top_rule,
                  deterministic ? "yes" : "NO"});
    json.NewRecord(StringPrintf("mine/players=%zu", players));
    json.Metric("hw_threads", hw_threads);
    json.Metric("facts", static_cast<double>(serial->NumLiveFacts()));
    json.Metric("load_serial_ms", serial_ms);
    json.Metric("mine_ms", mine_ms);
    json.Metric("patterns_considered",
                static_cast<double>(report.patterns_considered));
    json.Metric("rules_emitted", static_cast<double>(report.rules.size()));
    json.Metric("pairs_examined",
                static_cast<double>(report.pairs_examined));
    json.Metric("top_rule_is_planted_disjointness",
                top_is_disjoint ? 1.0 : 0.0);
    json.Metric("deterministic", deterministic ? 1.0 : 0.0);
  }
  std::printf("%s\n", table.ToAscii().c_str());
  std::printf("shape (planted disjoint_playsFor first by support, output "
              "byte-identical across runs): %s\n",
              shape_ok ? "MATCH" : "MISMATCH");

  if (!json_path.empty() && !json.WriteFile(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return shape_ok ? 0 : 1;
}
