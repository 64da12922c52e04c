// Metrics of a run: the end-to-end figures a client sees, and the
// per-layer figures of a traced run (joined spans, in-process counter
// deltas, and a timed replay of the edit batches through the layers'
// public functions).
#ifndef SVCBENCH_REPORT_H_
#define SVCBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "target.h"
#include "workload.h"

namespace svcbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;  ///< observations behind the value (0 = a count)
};

/// The end-to-end metrics of one phase, in BENCHMARK.json order.
std::vector<Metric> EndToEnd(const PhaseResult& phase);

/// Counters of the in-process service read around the measured window.
struct WindowCounters {
  tecore::obs::Histogram::Snapshot publish;  ///< delta
  uint64_t checkpoints = 0;                  ///< delta
  /// WAL fsyncs from the start of the window's traffic (after the cold
  /// loop) to its end, and the kb0 edit batches acknowledged in it.
  uint64_t edit_fsyncs = 0;
  uint64_t edit_batches = 0;
  uint64_t completion_reused = 0;            ///< delta, all KBs
  uint64_t completion_rebuilt = 0;
  uint64_t conflict_carried = 0;
  uint64_t disk_bytes = 0;  ///< data dir size after the window
  uint64_t live_facts = 0;  ///< all KBs, after the window
};

/// Timings of the first edit batches of kb0 replayed, one public layer
/// call at a time, on a replica built from the same inputs.
struct ReplayResult {
  size_t batches = 0;
  std::vector<double> parse_us, wal_append_us, fsync_us, incremental_us,
      clone_us, detect_us, delta_ground_us, rebuild_us, solve_us;
  size_t fast_path = 0;
  size_t dirty = 0;
  size_t spliced = 0;
  size_t optimal = 0;
  size_t largest_component = 0;
  uint64_t wal_bytes = 0;
  uint64_t chunk_copies = 0;
  // The replica's cold path (FootballDB workloads).
  double parse_ms = 0.0;
  uint64_t terms_interned = 0;
  double resolve_ms = 0.0;
  double ground_ms = 0.0;
  double solve_ms = 0.0;
  size_t atoms = 0;
  size_t clauses = 0;
  double canonicalize_us_mean = 0.0;
  double mine_ms = 0.0;
  double checkpoint_ms = 0.0;
  bool ok = false;
};

ReplayResult ReplayEdits(const Inputs& inputs,
                         const std::vector<AckedEdit>& edits, size_t limit,
                         const std::string& dir);

std::vector<Metric> PerLayer(const WorkloadSpec& spec, const Inputs& inputs,
                             const PhaseResult& traced,
                             const std::vector<Span>& server_spans,
                             const WindowCounters& counters,
                             const ReplayResult& replay, double recovery_ms);

}  // namespace svcbench

#endif  // SVCBENCH_REPORT_H_
