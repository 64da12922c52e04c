#include "report.h"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "api/engine.h"
#include "core/edits.h"
#include "core/resolver.h"
#include "mine/miner.h"
#include "obs/metrics.h"
#include "rdf/io.h"
#include "rules/parser.h"
#include "stats.h"
#include "storage/checkpoint.h"
#include "storage/wal.h"

namespace svcbench {

namespace tc = tecore;

std::vector<Metric> EndToEnd(const PhaseResult& p) {
  const double edits = static_cast<double>(
      std::count_if(p.edits.begin(), p.edits.end(),
                    [](const AckedEdit& e) { return e.measured; }));
  return {
      {"setup_s", Median(p.setup_s), "s", p.setup_s.size()},
      {"rss_mb", p.rss_mb, "MiB", 1},
      {"read_p50_ms", Quantile(p.read_ms, 0.50), "ms", p.read_ms.size()},
      {"read_p99_ms", Quantile(p.read_ms, 0.99), "ms", p.read_ms.size()},
      {"read_rps", p.closed_rps, "1/s", p.closed_reads},
      {"edit_p50_ms", Quantile(p.edit_ms, 0.50), "ms", p.edit_ms.size()},
      {"edit_p95_ms", Quantile(p.edit_ms, 0.95), "ms", p.edit_ms.size()},
      {"edit_bps", p.edit_seconds > 0 ? edits / p.edit_seconds : 0.0, "1/s",
       static_cast<size_t>(edits)},
      {"notify_p50_ms", Quantile(p.notify_ms, 0.50), "ms", p.notify_ms.size()},
      {"notify_p95_ms", Quantile(p.notify_ms, 0.95), "ms", p.notify_ms.size()},
      {"recovery_s", Median(p.recovery_s), "s", p.recovery_s.size()},
      {"resolve_s", Median(p.resolve_s), "s", p.resolve_s.size()},
      {"mine_ms", Median(p.mine_ms), "ms", p.mine_ms.size()},
  };
}

// ---------------------------------------------------------------- replay

ReplayResult ReplayEdits(const Inputs& inputs,
                         const std::vector<AckedEdit>& edits, size_t limit,
                         const std::string& dir) {
  ReplayResult out;
  auto* metrics = tc::obs::Registry::Default();
  const auto interned = metrics->GetCounter("tecore_dict_terms_interned_total");
  const auto copies = metrics->GetCounter("tecore_graph_chunk_copies_total");
  const auto canon = tc::obs::StageHistogram("canonicalize");
  const KbInput& kb = inputs.kbs.front();

  uint64_t before = interned->Value();
  TimePoint t = Clock::now();
  auto parsed = tc::rdf::ParseGraphText(kb.graph_text);
  out.parse_ms = MicrosBetween(t, Clock::now()) / 1000.0;
  out.terms_interned = interned->Value() - before;
  auto rules = tc::rules::ParseRules(inputs.rules_text);
  if (!parsed.ok() || !rules.ok()) return out;
  tc::rdf::TemporalGraph& graph = *parsed;

  const auto canon_before = canon->Snap();
  t = Clock::now();
  tc::core::IncrementalResolver incremental(&graph, *rules, {});
  auto init = incremental.Initialize();
  out.resolve_ms = MicrosBetween(t, Clock::now()) / 1000.0;
  if (!init.ok()) return out;
  out.ground_ms = init->ground_time_ms;
  out.solve_ms = init->solve_time_ms;
  out.atoms = init->ground_atoms;
  out.clauses = init->ground_clauses;

  t = Clock::now();
  (void)tc::mine::Miner().Mine(graph);
  out.mine_ms = MicrosBetween(t, Clock::now()) / 1000.0;

  std::filesystem::create_directories(dir + "/checkpoint");
  tc::storage::Checkpoint cp;
  cp.version = 1;
  cp.has_graph = true;
  cp.graph_text = kb.graph_text;
  cp.rules_text = inputs.rules_text;
  t = Clock::now();
  if (tc::storage::WriteCheckpoint(dir + "/checkpoint", cp).ok()) {
    out.checkpoint_ms = MicrosBetween(t, Clock::now()) / 1000.0;
  }

  tc::storage::Wal wal;
  if (!wal.Open(dir + "/replay.wal").ok()) return out;
  auto rule_set = std::make_shared<const tc::rules::RuleSet>(*rules);
  // Published versions stay referenced the way the engine's 8-version
  // retention ring holds them, so edits pay the same copy-on-write.
  std::deque<std::shared_ptr<const tc::rdf::TemporalGraph>> retained;
  retained.push_back(
      std::make_shared<const tc::rdf::TemporalGraph>(graph.Clone()));
  const uint64_t copies_before = copies->Value();
  const size_t n = std::min(limit, edits.size());
  for (size_t i = 0; i < n; ++i) {
    t = Clock::now();
    auto batch = tc::core::ParseEditScript(edits[i].script, &graph);
    TimePoint u = Clock::now();
    out.parse_us.push_back(MicrosBetween(t, u));
    if (!batch.ok()) return out;

    t = u;
    tc::storage::WalRecord record;
    record.type = tc::storage::WalRecordType::kEditBatch;
    record.version = edits[i].version;
    record.payload = tc::core::EditScriptToText(*batch, graph);
    if (!wal.Append(record, /*sync=*/false).ok()) return out;
    u = Clock::now();
    out.wal_append_us.push_back(MicrosBetween(t, u));
    t = u;
    if (!wal.Sync().ok()) return out;
    u = Clock::now();
    out.fsync_us.push_back(MicrosBetween(t, u));

    t = u;
    auto result = incremental.ApplyEdits(*batch);
    u = Clock::now();
    if (!result.ok()) return out;
    out.incremental_us.push_back(MicrosBetween(t, u));
    const tc::ground::IncrementalUpdateStats& stats =
        incremental.last_update_stats();
    out.delta_ground_us.push_back(stats.delta_ground_ms * 1000.0);
    out.rebuild_us.push_back(stats.rebuild_ms * 1000.0);
    out.fast_path += stats.fast_path ? 1 : 0;
    out.solve_us.push_back(result->solve_time_ms * 1000.0);
    out.dirty += result->dirty_components;
    out.spliced += result->spliced_components;
    out.optimal += result->optimal ? 1 : 0;
    out.largest_component =
        std::max(out.largest_component, result->largest_component);

    t = Clock::now();
    auto frozen =
        std::make_shared<const tc::rdf::TemporalGraph>(graph.Clone());
    u = Clock::now();
    out.clone_us.push_back(MicrosBetween(t, u));
    retained.push_back(frozen);
    if (retained.size() > 8) retained.pop_front();

    tc::api::Snapshot snapshot;
    snapshot.graph = frozen;
    snapshot.rules = rule_set;
    t = Clock::now();
    const bool detected = snapshot.DetectConflicts().ok();
    out.detect_us.push_back(MicrosBetween(t, Clock::now()));
    if (!detected) return out;
  }
  out.canonicalize_us_mean = HistogramMean(
      HistogramDelta(canon->Snap(), canon_before));
  out.chunk_copies = copies->Value() - copies_before;
  out.wal_bytes = wal.bytes();
  out.batches = n;
  out.ok = n > 0;
  return out;
}

// ------------------------------------------------------------- per-layer

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

std::vector<Metric> PerLayer(const WorkloadSpec& spec, const Inputs& inputs,
                             const PhaseResult& traced,
                             const std::vector<Span>& server_spans,
                             const WindowCounters& counters,
                             const ReplayResult& replay,
                             double recovery_ms) {
  std::unordered_map<std::string, const Span*> handler;
  for (const Span& s : server_spans) handler[s.id] = &s;

  // Join every client span of the measured window to its handler span.
  std::vector<double> pre_us, post_us, upload_ms;
  std::map<std::string, std::vector<double>> read_us;
  std::vector<double> edit_us;
  std::unordered_map<uint64_t, double> edit_us_by_version;
  struct ConflictRead {
    TimePoint start;
    std::string key;
    double us;
  };
  std::vector<ConflictRead> conflict_reads;
  for (const Span& c : traced.client_spans) {
    const auto it = handler.find(c.id);
    if (it == handler.end() || c.status < 200 || c.status >= 300) continue;
    const Span& h = *it->second;
    const double handler_us = MicrosBetween(h.start, h.end);
    if (c.name == "upload") {
      upload_ms.push_back(MicrosBetween(c.start, h.start) / 1000.0);
    }
    if (c.id[0] == 'r') {  // reader roles
      pre_us.push_back(MicrosBetween(c.start, h.start));
      post_us.push_back(MicrosBetween(h.end, c.end));
      read_us[c.name].push_back(handler_us);
      if (c.name == "conflicts") {
        conflict_reads.push_back(
            {h.start, c.kb + "@" + std::to_string(c.version), handler_us});
      }
    } else if (c.id[0] == 'e') {
      edit_us.push_back(handler_us);
      edit_us_by_version[c.version] = handler_us;
    }
  }
  // The first read of each (KB, version) is the one that may compute
  // the conflict report.
  std::sort(conflict_reads.begin(), conflict_reads.end(),
            [](const ConflictRead& a, const ConflictRead& b) {
              return a.start < b.start;
            });
  std::set<std::string> seen_versions;
  std::vector<double> cold_us;
  for (const ConflictRead& r : conflict_reads) {
    if (seen_versions.insert(r.key).second) cold_us.push_back(r.us);
  }

  // Residual of the edit handler: the replayed layer calls of the same
  // batches are its children.
  double edit_total = 0.0;
  double child_total = 0.0;
  for (size_t i = 0; i < replay.batches; ++i) {
    const auto it = edit_us_by_version.find(traced.edits[i].version);
    if (it == edit_us_by_version.end()) continue;
    edit_total += it->second;
    child_total += replay.parse_us[i] + replay.wal_append_us[i] +
                   replay.fsync_us[i] + replay.incremental_us[i] +
                   replay.clone_us[i];
  }

  // The cold path comes from the Wikidata-mix reference on cold_resolve
  // and from the FootballDB replica elsewhere.
  const bool cold = spec.cold_loop;
  const ColdReference& ref = inputs.cold;
  const double batches = static_cast<double>(replay.batches);
  const double graph_publishes = static_cast<double>(
      counters.completion_reused + counters.completion_rebuilt);

  std::vector<Metric> m;
  auto add = [&m](const std::string& name, double value, const char* unit,
                  size_t samples) { m.push_back({name, value, unit, samples}); };
  add("server.pre_handler_us.p50", Quantile(pre_us, 0.5), "us", pre_us.size());
  add("server.pre_handler_us.p99", Quantile(pre_us, 0.99), "us",
      pre_us.size());
  add("server.post_handler_us.p50", Quantile(post_us, 0.5), "us",
      post_us.size());
  add("server.upload_ms", Median(upload_ms), "ms", upload_ms.size());
  for (const char* endpoint : {"graph", "stats", "complete", "conflicts"}) {
    const std::vector<double>& v = read_us[endpoint];
    add(std::string("api.read_us.") + endpoint + ".p50", Quantile(v, 0.5),
        "us", v.size());
    add(std::string("api.read_us.") + endpoint + ".p99", Quantile(v, 0.99),
        "us", v.size());
  }
  add("api.conflicts_cold_us.p50", Quantile(cold_us, 0.5), "us",
      cold_us.size());
  add("api.conflicts_cold_frac",
      Ratio(static_cast<double>(cold_us.size()),
            static_cast<double>(conflict_reads.size())),
      "ratio", conflict_reads.size());
  add("api.completion_reuse_frac",
      Ratio(static_cast<double>(counters.completion_reused), graph_publishes),
      "ratio", static_cast<size_t>(graph_publishes));
  add("api.conflict_carry_frac",
      Ratio(static_cast<double>(counters.conflict_carried), graph_publishes),
      "ratio", static_cast<size_t>(graph_publishes));
  add("api.edit_us.p50", Quantile(edit_us, 0.5), "us", edit_us.size());
  add("api.edit_us.p95", Quantile(edit_us, 0.95), "us", edit_us.size());
  add("api.publish_us.p50",
      static_cast<double>(counters.publish.Quantile(0.5)), "us",
      counters.publish.count);
  add("api.fanout_us.p50", Quantile(traced.fanout_us, 0.5), "us",
      traced.fanout_us.size());
  add("api.fanout_us.p95", Quantile(traced.fanout_us, 0.95), "us",
      traced.fanout_us.size());
  add("core.parse_edits_us.p50", Quantile(replay.parse_us, 0.5), "us",
      replay.batches);
  add("core.incremental_us.p50", Quantile(replay.incremental_us, 0.5), "us",
      replay.batches);
  add("core.incremental_us.p95", Quantile(replay.incremental_us, 0.95), "us",
      replay.batches);
  add("core.dirty_components.mean",
      Ratio(static_cast<double>(replay.dirty), batches), "count",
      replay.batches);
  add("core.splice_frac",
      Ratio(static_cast<double>(replay.spliced),
            static_cast<double>(replay.spliced + replay.dirty)),
      "ratio", replay.batches);
  add("core.detect_us.p50", Quantile(replay.detect_us, 0.5), "us",
      replay.batches);
  add("core.resolve_ms", cold ? ref.resolve_ms : replay.resolve_ms, "ms", 1);
  add("ground.delta_ground_us.p50", Quantile(replay.delta_ground_us, 0.5),
      "us", replay.batches);
  add("ground.rebuild_us.p50", Quantile(replay.rebuild_us, 0.5), "us",
      replay.batches);
  add("ground.rebuild_us.p95", Quantile(replay.rebuild_us, 0.95), "us",
      replay.batches);
  add("ground.fast_path_frac",
      Ratio(static_cast<double>(replay.fast_path), batches), "ratio",
      replay.batches);
  add("ground.ground_ms", cold ? ref.ground_ms : replay.ground_ms, "ms", 1);
  add("ground.canonicalize_us.mean",
      cold ? ref.canonicalize_us_mean : replay.canonicalize_us_mean, "us", 0);
  add("ground.atoms", static_cast<double>(cold ? ref.atoms : replay.atoms),
      "count", 0);
  add("ground.clauses",
      static_cast<double>(cold ? ref.clauses : replay.clauses), "count", 0);
  add("mln.solve_us.p50", Quantile(replay.solve_us, 0.5), "us",
      replay.batches);
  add("mln.solve_us.p95", Quantile(replay.solve_us, 0.95), "us",
      replay.batches);
  add("mln.optimal_frac",
      Ratio(static_cast<double>(replay.optimal), batches), "ratio",
      replay.batches);
  add("mln.largest_component", static_cast<double>(replay.largest_component),
      "count", 0);
  add("mln.solve_ms", cold ? ref.solve_ms : replay.solve_ms, "ms", 1);
  add("storage.wal_append_us.p50", Quantile(replay.wal_append_us, 0.5), "us",
      replay.batches);
  add("storage.fsync_us.p50", Quantile(replay.fsync_us, 0.5), "us",
      replay.batches);
  add("storage.fsyncs_per_edit",
      Ratio(static_cast<double>(counters.edit_fsyncs),
            static_cast<double>(counters.edit_batches)),
      "count", 0);
  add("storage.wal_bytes_per_edit",
      Ratio(static_cast<double>(replay.wal_bytes), batches), "B", 0);
  add("storage.checkpoint_ms", cold ? ref.checkpoint_ms : replay.checkpoint_ms,
      "ms", 1);
  add("storage.checkpoints", static_cast<double>(counters.checkpoints),
      "count", 0);
  add("storage.disk_bytes_per_fact",
      Ratio(static_cast<double>(counters.disk_bytes),
            static_cast<double>(counters.live_facts)),
      "B", 0);
  add("storage.recovery_ms", recovery_ms, "ms", 1);
  add("rdf.parse_ms", cold ? ref.parse_ms : replay.parse_ms, "ms", 1);
  add("rdf.terms_interned",
      static_cast<double>(cold ? ref.terms_interned : replay.terms_interned),
      "count", 0);
  add("rdf.chunk_copies_per_publish",
      Ratio(static_cast<double>(replay.chunk_copies), batches), "count", 0);
  add("rdf.clone_us.p50", Quantile(replay.clone_us, 0.5), "us",
      replay.batches);
  add("mine.mine_ms", cold ? ref.mine_ms : replay.mine_ms, "ms", 1);
  add("edit.unaccounted_frac",
      edit_total > 0 ? 1.0 - child_total / edit_total : 0.0, "ratio",
      replay.batches);
  return m;
}

}  // namespace svcbench
