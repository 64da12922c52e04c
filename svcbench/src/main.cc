// svcbench — the service benchmark of tecore-server.
//
//   svcbench --workload serve_read|edit_churn|cold_resolve --seed N
//            --seconds S --trace 0|1 --server path/to/tecore-server
//            --work-dir DIR [--commit ID]
//
// --trace 0 spawns the server binary and reports the end-to-end metrics.
// --trace 1 runs the same workload twice for S/2 each: against the
// spawned binary (untraced) and against the same registry and HTTP server
// built in this process with every handler call recorded as a span
// (traced); it then replays kb0's first edit batches through the layers'
// public functions and reports the per-layer metrics and the tracing
// overhead. The last stdout line is one JSON object:
//   {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
// and the exit code is nonzero when any output check failed.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "obs/metrics.h"
#include "report.h"
#include "stats.h"
#include "target.h"
#include "util/json.h"
#include "workload.h"

namespace {

using namespace svcbench;  // NOLINT
namespace tc = tecore;
namespace fs = std::filesystem;

/// Server connection-worker pool. tecore-server floors its pool at six
/// executors (an SSE subscriber parks on one), so six is what it runs.
constexpr int kServerThreads = 6;
/// kb0 edit batches replayed layer by layer in a traced run.
constexpr size_t kReplayBatches = 64;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string server;
  std::string work_dir;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--server") {
      args->server = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0 &&
         !args->work_dir.empty() && (args->trace == 0 || args->trace == 1);
}

/// Minimum samples behind a percentile: at least ten beyond it.
size_t MinSamples(const std::string& name) {
  if (name.find("_p99_") != std::string::npos) return 1000;
  if (name.find("_p95_") != std::string::npos) return 200;
  return 1;
}

/// Honesty checks on one phase: enough samples behind every reported
/// percentile (`full` runs only: a traced run's halves serve just the
/// overhead figures), and an open-loop generator that sent on time.
void CheckPhase(const std::vector<Metric>& metrics, bool full,
                PhaseResult* phase) {
  for (const Metric& m : metrics) {
    phase->Check((!full || m.samples >= MinSamples(m.name)) &&
                     std::isfinite(m.value) && m.value > 0,
                 m.name + " has " + std::to_string(m.samples) +
                     " samples, value " + std::to_string(m.value));
  }
  // Lateness is counted from when a send was due and its connection was
  // free, so it is the generator's own delay (thread wake-up on a busy
  // machine), not the server's. The run is invalid when that delay could
  // explain a noticeable part of the read tail.
  const double late_p99_us = Quantile(phase->generator_late_us, 0.99);
  double read_p99_us = 0.0;
  for (const Metric& m : metrics) {
    if (m.name == "read_p99_ms") read_p99_us = 1000.0 * m.value;
  }
  phase->Check(late_p99_us <= 0.25 * read_p99_us,
               "generator ran late: p99 lateness " +
                   std::to_string(late_p99_us) + " us against read p99 " +
                   std::to_string(read_p99_us) + " us");
}

void PrintMetrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-9s %-30s %14.6g %-6s (n=%zu)\n", kind, m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
}

void PrintFailures(const PhaseResult& phase) {
  for (const std::string& f : phase.failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
}

std::string JsonLine(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  using tc::util::Json;
  Json all = Json::Object();
  for (const Metric& m : metrics) {
    Json entry = Json::Object();
    entry.Set("value", Json::Number(std::isfinite(m.value) ? m.value : 1e300));
    entry.Set("unit", Json::Str(m.unit));
    all.Set(m.name, std::move(entry));
  }
  Json out = Json::Object();
  out.Set("correct", Json::Bool(correct));
  out.Set("attempted", Json::Int(static_cast<int64_t>(attempted)));
  out.Set("failed", Json::Int(static_cast<int64_t>(failed)));
  out.Set("metrics", std::move(all));
  return out.Dump();
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

void WriteSpans(const std::string& path, const Args& args,
                const std::vector<Span>& client,
                const std::vector<Span>& server) {
  std::ofstream out(path);
  out << "# workload=" << args.workload << " seed=" << args.seed
      << " hw_threads=" << std::thread::hardware_concurrency()
      << " server_threads=" << kServerThreads << " commit=" << args.commit
      << "\n# kind\tid\tname\tstart_us\tend_us\tstatus\tparent\n";
  const TimePoint origin = client.empty() ? Clock::now() : client.front().start;
  for (const Span& s : client) {
    out << "client\t" << s.id << '\t' << s.name << '\t'
        << MicrosBetween(origin, s.start) << '\t'
        << MicrosBetween(origin, s.end) << '\t' << s.status << "\t-\n";
  }
  for (const Span& s : server) {
    out << "server\t" << s.id << '\t' << s.name << '\t'
        << MicrosBetween(origin, s.start) << '\t'
        << MicrosBetween(origin, s.end) << '\t' << s.status << '\t' << s.id
        << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) || !LookupWorkload(args.workload, &spec)) {
    std::fprintf(stderr,
                 "usage: svcbench --workload serve_read|edit_churn|"
                 "cold_resolve --seed N --seconds S --trace 0|1 "
                 "--server BIN --work-dir DIR [--commit ID]\n");
    return 2;
  }
  const std::string work =
      args.work_dir + "/" + args.workload + "-" + std::to_string(::getpid());
  fs::remove_all(work);
  fs::create_directories(work);
  std::printf("svcbench workload=%s seed=%llu seconds=%g trace=%d "
              "hw_threads=%u server_threads=%d commit=%s\n",
              args.workload.c_str(), (unsigned long long)args.seed,
              args.seconds, args.trace, std::thread::hardware_concurrency(),
              kServerThreads, args.commit.c_str());
  std::fflush(stdout);

  const Inputs inputs = MakeInputs(spec, work);
  PhaseOptions options;
  options.seed = args.seed;
  options.data_dir = work + "/data";

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> reported;
  // fail_frac is printed, and is the JSON's failed / attempted; it is 0 on
  // a good run, so it is no gated metric.
  auto account = [&](PhaseResult* phase, const std::vector<Metric>& e2e) {
    CheckPhase(e2e, args.trace == 0, phase);
    PrintFailures(*phase);
    std::printf("%-9s %-30s %14.6g %-6s (n=%llu)\n", "check", "fail_frac",
                static_cast<double>(phase->failed) /
                    static_cast<double>(std::max<uint64_t>(1, phase->attempted)),
                "ratio", (unsigned long long)phase->attempted);
    attempted += phase->attempted;
    failed += phase->failed;
    correct = correct && phase->failed == 0;
  };

  if (args.trace == 0) {
    ProcessTarget target(args.server, kServerThreads, work);
    options.seconds = args.seconds;
    PhaseResult phase = RunPhase(spec, inputs, &target, options);
    reported = EndToEnd(phase);
    account(&phase, reported);
    PrintMetrics("e2e", reported);
    std::printf("info      cold_iterations=%llu generator_late_p99_us=%.1f "
                "setup_s=",
                (unsigned long long)phase.cold_iterations,
                Quantile(phase.generator_late_us, 0.99));
    for (double s : phase.setup_s) std::printf(" %.4f", s);
    std::printf("\n");
  } else {
    options.seconds = args.seconds / 2;
    options.setups = 1;
    options.recoveries = 1;
    ProcessTarget process(args.server, kServerThreads, work);
    PhaseResult untraced = RunPhase(spec, inputs, &process, options);
    const std::vector<Metric> e2e_untraced = EndToEnd(untraced);
    account(&untraced, e2e_untraced);

    SpanLog spans;
    InProcessTarget inproc(kServerThreads, &spans);
    WindowCounters counters;
    auto* metrics = tc::obs::Registry::Default();
    const auto publish = tc::obs::StageHistogram("publish");
    const auto checkpoints = metrics->GetCounter("tecore_checkpoints_total");
    const auto fsyncs = metrics->GetCounter("tecore_wal_fsyncs_total");
    tc::obs::Histogram::Snapshot publish_before;
    uint64_t checkpoints_before = 0;
    uint64_t fsyncs_before = 0;
    tc::api::Engine::CacheCounters cache_before;
    auto cache_now = [&inproc] {
      tc::api::Engine::CacheCounters sum;
      for (const auto& info : inproc.registry()->List()) {
        auto engine = inproc.registry()->Get(info.name);
        if (!engine.ok()) continue;
        const auto c = (*engine)->cache_counters();
        sum.completion_reused += c.completion_reused;
        sum.completion_rebuilt += c.completion_rebuilt;
        sum.conflict_carried += c.conflict_carried;
      }
      return sum;
    };
    options.keep_client_spans = true;
    options.hooks.before_window = [&] {
      publish_before = publish->Snap();
      checkpoints_before = checkpoints->Value();
      cache_before = cache_now();
    };
    // Only the editor writes during the window's traffic, so the fsyncs
    // the service makes there are the ones its acknowledged edits cost.
    options.hooks.before_traffic = [&] { fsyncs_before = fsyncs->Value(); };
    options.hooks.after_window = [&] {
      counters.publish = HistogramDelta(publish->Snap(), publish_before);
      counters.checkpoints = checkpoints->Value() - checkpoints_before;
      counters.edit_fsyncs = fsyncs->Value() - fsyncs_before;
      const auto c = cache_now();
      counters.completion_reused =
          c.completion_reused - cache_before.completion_reused;
      counters.completion_rebuilt =
          c.completion_rebuilt - cache_before.completion_rebuilt;
      counters.conflict_carried =
          c.conflict_carried - cache_before.conflict_carried;
      for (const auto& info : inproc.registry()->List()) {
        auto engine = inproc.registry()->Get(info.name);
        if (engine.ok() && (*engine)->snapshot()->has_graph()) {
          counters.live_facts += (*engine)->snapshot()->graph->NumLiveFacts();
        }
      }
      counters.disk_bytes = DirectoryBytes(options.data_dir);
    };
    options.data_dir = work + "/data-traced";
    PhaseResult traced = RunPhase(spec, inputs, &inproc, options);
    counters.edit_batches = traced.edits.size();
    const std::vector<Metric> e2e_traced = EndToEnd(traced);
    account(&traced, e2e_traced);
    const std::vector<Span> server_spans = spans.Take();

    const ReplayResult replay =
        ReplayEdits(inputs, traced.edits, kReplayBatches, work + "/replay");
    const bool replayed = replay.ok && replay.batches == kReplayBatches;
    ++attempted;
    if (!replayed) {
      ++failed;
      correct = false;
      std::fprintf(stderr, "check failed: replayed %zu of %zu edit batches\n",
                   replay.batches, kReplayBatches);
    }
    reported = PerLayer(spec, inputs, traced, server_spans, counters, replay,
                        inproc.last_recovery_ms());
    for (size_t i = 0; i < e2e_traced.size(); ++i) {
      const Metric& m = e2e_untraced[i];
      reported.push_back({"e2e." + m.name, m.value, m.unit, m.samples});
      if (m.name == "rss_mb") continue;  // not the same process
      reported.push_back({"overhead." + m.name,
                          e2e_traced[i].value - m.value, m.unit,
                          e2e_traced[i].samples});
    }
    PrintMetrics("untraced", e2e_untraced);
    PrintMetrics("traced", e2e_traced);
    PrintMetrics("layer", reported);
    fs::create_directories(args.work_dir + "/traces");
    const std::string trace_path = args.work_dir + "/traces/" +
                                   args.workload + "-seed" +
                                   std::to_string(args.seed) + ".tsv";
    WriteSpans(trace_path, args, traced.client_spans, server_spans);
    std::printf("info      spans written to %s\n", trace_path.c_str());
  }
  fs::remove_all(work);
  std::printf("%s\n", JsonLine(correct, attempted, failed, reported).c_str());
  return correct ? 0 : 1;
}
