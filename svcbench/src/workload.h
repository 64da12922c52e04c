// Workloads of the service benchmark: seeded inputs, the set-up that
// seeds a fresh service, the concurrent client roles of one measured
// phase, the output checks, and the crash-recovery probe.
#ifndef SVCBENCH_WORKLOAD_H_
#define SVCBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "http.h"
#include "target.h"

namespace svcbench {

/// What distinguishes the workloads; see README.md for why each exists.
struct WorkloadSpec {
  std::string name;
  /// FootballDB KBs seeded at set-up (kb0 is the one edited).
  int football_kbs = 1;
  /// Open-loop reader connections, each at `reader_rate` requests/s.
  int readers = 1;
  double reader_rate = 200.0;
  /// Reads kb0 only, mostly `stats`, 10% `conflicts` (the edit_churn
  /// reader).
  bool conflict_stats_reads = false;
  /// Closed-loop batches cycling 1/4/16/64 edits, about half retractions;
  /// else single inserts of a team location at a fixed rate.
  bool churn_editor = false;
  /// Create → upload → rules → solve → conflicts → mine → delete loop
  /// over the Wikidata-mix graph.
  bool cold_loop = false;
};

/// Returns false for an unknown name.
bool LookupWorkload(const std::string& name, WorkloadSpec* spec);

/// One seeded FootballDB KB.
struct KbInput {
  std::string name;
  std::string graph_text;  ///< `.tq`
  std::string graph_body;  ///< `POST graph` JSON body
  /// "s p o [b,e]" of every fact, the retraction candidates.
  std::vector<std::string> quads;
  std::vector<std::string> players;
  std::vector<std::string> teams;
  std::vector<std::string> cities;
};

/// The in-process solve the cold loop's answers must equal, with the
/// layer timings measured while computing it (quiet process).
struct ColdReference {
  double objective = 0.0;
  size_t kept = 0;
  size_t removed = 0;
  double parse_ms = 0.0;
  uint64_t terms_interned = 0;
  double resolve_ms = 0.0;
  double ground_ms = 0.0;
  double solve_ms = 0.0;
  size_t atoms = 0;
  size_t clauses = 0;
  double mine_ms = 0.0;
  double canonicalize_us_mean = 0.0;
  double checkpoint_ms = 0.0;
};

struct Inputs {
  std::vector<KbInput> kbs;
  std::string rules_text;  ///< FootballDB constraints
  std::string cold_body;   ///< `POST graph` body of the Wikidata-mix graph
  std::string cold_text;
  std::string cold_rules_text;
  ColdReference cold;
};

/// The datasets: FootballDB KBs and the Wikidata-mix graph from the
/// generators' fixed dataset seeds, standing in for the fixed dumps the
/// paper used. The request streams built on them (edits, read mix, send
/// times) come from the run's seed.
Inputs MakeInputs(const WorkloadSpec& spec, const std::string& scratch_dir);

/// One acknowledged edit batch.
struct AckedEdit {
  std::string script;
  uint64_t version = 0;
  TimePoint sent;
  TimePoint acked;
  bool measured = false;  ///< sent inside the measured window
};

/// Raw observations of one phase (set-ups, measured window, mine probes,
/// checks, recoveries).
struct PhaseResult {
  std::vector<double> setup_s;
  std::vector<double> read_ms;  ///< open-loop, from due time; failed = inf
  std::vector<double> generator_late_us;
  uint64_t closed_reads = 0;
  double closed_rps = 0.0;  ///< summed over the closed-loop connections
  std::vector<double> edit_ms;  ///< POST sent → ack; failed = inf
  double edit_seconds = 0.0;
  std::vector<double> notify_ms;  ///< POST sent → SSE event; missing = inf
  std::vector<double> fanout_us;  ///< SSE receipt − ack receipt
  std::vector<double> resolve_s;
  std::vector<double> mine_ms;
  std::vector<double> recovery_s;
  double rss_mb = 0.0;
  uint64_t cold_iterations = 0;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for the log

  std::vector<AckedEdit> edits;  ///< kb0, in version order, warm-up too
  std::vector<Span> client_spans;  ///< kept only when tracing

  void Fail(const std::string& what);
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail(what);
  }
};

/// Calls made around the measured window (the traced run snapshots
/// in-process counters there).
struct PhaseHooks {
  std::function<void()> before_window;
  /// After the cold loop, just before the window's roles start.
  std::function<void()> before_traffic;
  std::function<void()> after_window;
};

struct PhaseOptions {
  double seconds = 10.0;
  int setups = 15;
  int recoveries = 5;
  bool keep_client_spans = false;
  uint64_t seed = 1;
  std::string data_dir;
  PhaseHooks hooks;
};

/// Seeds a fresh service `options.setups` times (keeping the last),
/// drives the workload for `options.seconds`, probes mining, checks the
/// outputs, and crash-restarts `options.recoveries` times.
PhaseResult RunPhase(const WorkloadSpec& spec, const Inputs& inputs,
                     Target* target, const PhaseOptions& options);

}  // namespace svcbench

#endif  // SVCBENCH_WORKLOAD_H_
