#include "workload.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <set>
#include <thread>
#include <unordered_map>

#include "core/edits.h"
#include "core/resolver.h"
#include "datagen/generators.h"
#include "mine/miner.h"
#include "obs/metrics.h"
#include "rdf/io.h"
#include "rules/ast.h"
#include "rules/library.h"
#include "rules/parser.h"
#include "stats.h"
#include "storage/checkpoint.h"
#include "util/json.h"
#include "util/random.h"
#include "util/string_util.h"

namespace svcbench {

namespace tc = tecore;
using tc::util::Json;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kFootballPlayers = 2000;
/// Load before the measured window: the spawned server's first seconds
/// of work run measurably slower than its steady state.
constexpr auto kWarmUp = std::chrono::seconds(2);
/// Batches/s of the single-insert editors.
/// Every insert re-runs the incremental pipeline over the whole network
/// (about 20 ms of all cores at 2000 players), so this rate keeps the
/// readers' share of time beside an edit near a fifth, while a 20 s
/// window still holds the 200 samples a p95 needs.
constexpr double kEditRate = 11.0;
/// Length of the resolve/mine probe period after the measured window.
constexpr auto kProbePeriod = std::chrono::seconds(3);

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string Body(const char* key, const std::string& value) {
  Json body = Json::Object();
  body.Set(key, Json::Str(value));
  return body.Dump();
}

Json ParseOrNull(const std::string& body) {
  auto parsed = Json::Parse(body);
  return parsed.ok() ? std::move(*parsed) : Json::Null();
}

uint64_t VersionOf(const Json& json) {
  return static_cast<uint64_t>(json.GetInt("version", 0));
}

std::string KbPath(const std::string& kb, const std::string& endpoint) {
  return "/v1/kb/" + kb + "/" + endpoint;
}

}  // namespace

bool LookupWorkload(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "serve_read") {
    s.football_kbs = 4;
    s.readers = 2;
    s.reader_rate = 1000.0;
  } else if (name == "edit_churn") {
    s.football_kbs = 1;
    s.readers = 1;
    s.reader_rate = 100.0;
    s.conflict_stats_reads = true;
    s.churn_editor = true;
  } else if (name == "cold_resolve") {
    s.football_kbs = 1;
    s.readers = 1;
    s.reader_rate = 1000.0;
    s.cold_loop = true;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

void PhaseResult::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

// ---------------------------------------------------------------- inputs

Inputs MakeInputs(const WorkloadSpec& spec, const std::string& scratch_dir) {
  Inputs in;
  for (int k = 0; k < spec.football_kbs; ++k) {
    tc::datagen::FootballDbOptions gen;
    gen.num_players = kFootballPlayers;
    gen.seed += static_cast<uint64_t>(k);  // distinct KBs, fixed dataset
    tc::datagen::GeneratedKg kg = tc::datagen::GenerateFootballDb(gen);
    KbInput kb;
    kb.name = "kb" + std::to_string(k);
    kb.graph_text = tc::rdf::WriteGraphText(kg.graph);
    kb.graph_body = Body("text", kb.graph_text);
    std::set<std::string> seen, players, teams, cities;
    for (const std::string& line : tc::Split(kb.graph_text, '\n')) {
      // "s p o [b,e] conf ." — the quad is everything before the
      // confidence.
      const std::vector<std::string> tok = tc::Split(line, ' ');
      if (tok.size() < 5) continue;
      const std::string quad = tok[0] + " " + tok[1] + " " + tok[2] + " " +
                               tok[3];
      if (seen.insert(quad).second) kb.quads.push_back(quad);
      if (tok[1] == "playsFor") {
        players.insert(tok[0]);
        teams.insert(tok[2]);
      } else if (tok[1] == "locatedIn") {
        cities.insert(tok[2]);
      }
    }
    kb.players.assign(players.begin(), players.end());
    kb.teams.assign(teams.begin(), teams.end());
    kb.cities.assign(cities.begin(), cities.end());
    in.kbs.push_back(std::move(kb));
  }
  in.rules_text = tc::rules::WriteRulesText(*tc::rules::FootballConstraints());
  if (!spec.cold_loop) return in;

  tc::datagen::WikidataOptions wiki;
  {
    tc::datagen::GeneratedKg kg = tc::datagen::GenerateWikidata(wiki);
    in.cold_text = tc::rdf::WriteGraphText(kg.graph);
  }
  in.cold_body = Body("text", in.cold_text);
  const tc::rules::RuleSet rules = *tc::rules::WikidataConstraints();
  in.cold_rules_text = tc::rules::WriteRulesText(rules);

  // The reference solve of what the cold loop uploads, timed layer by
  // layer while nothing else runs in this process.
  ColdReference& ref = in.cold;
  auto* metrics = tc::obs::Registry::Default();
  const auto interned = metrics->GetCounter("tecore_dict_terms_interned_total");
  const uint64_t interned_before = interned->Value();
  TimePoint t = Clock::now();
  auto graph = tc::rdf::ParseGraphText(in.cold_text);
  ref.parse_ms = MicrosBetween(t, Clock::now()) / 1000.0;
  ref.terms_interned = interned->Value() - interned_before;
  if (!graph.ok()) return in;
  const auto canon = tc::obs::StageHistogram("canonicalize");
  const auto canon_before = canon->Snap();
  t = Clock::now();
  tc::core::Resolver resolver(&*graph, rules, {});
  auto result = resolver.Run();
  ref.resolve_ms = MicrosBetween(t, Clock::now()) / 1000.0;
  ref.canonicalize_us_mean =
      HistogramMean(HistogramDelta(canon->Snap(), canon_before));
  if (result.ok()) {
    ref.objective = result->objective;
    ref.kept = result->kept_facts.size();
    ref.removed = result->removed_facts.size();
    ref.ground_ms = result->ground_time_ms;
    ref.solve_ms = result->solve_time_ms;
    ref.atoms = result->ground_atoms;
    ref.clauses = result->ground_clauses;
  }
  t = Clock::now();
  const tc::mine::MiningReport report = tc::mine::Miner().Mine(*graph);
  ref.mine_ms = MicrosBetween(t, Clock::now()) / 1000.0;
  (void)report;
  tc::storage::Checkpoint cp;
  cp.version = 1;
  cp.has_graph = true;
  cp.graph_text = in.cold_text;
  cp.rules_text = in.cold_rules_text;
  const std::string dir = scratch_dir + "/checkpoint";
  std::filesystem::create_directories(dir);
  t = Clock::now();
  const tc::Status written = tc::storage::WriteCheckpoint(dir, cp);
  ref.checkpoint_ms = MicrosBetween(t, Clock::now()) / 1000.0;
  std::filesystem::remove_all(dir);
  if (!written.ok()) ref.checkpoint_ms = 0.0;
  return in;
}

// ----------------------------------------------------------------- roles

namespace {

struct KbExpect {
  std::string name;
  uint64_t version = 0;
  int64_t live_facts = 0;
};

/// State shared by the roles of one measured window.
struct Window {
  const WorkloadSpec* spec = nullptr;
  const Inputs* inputs = nullptr;
  int port = 0;
  uint64_t seed = 0;
  bool keep_spans = false;
  TimePoint start;
  /// Load runs from `start`; samples count from here (warm-up before).
  TimePoint measure_from;
  TimePoint open_end;  ///< readers switch from open to closed loop here
  TimePoint deadline;
  std::array<std::atomic<uint64_t>, 8> versions{};  ///< per KB, as served
  std::atomic<uint64_t> last_acked{0};
  std::atomic<bool> writers_done{false};
};

/// Requests of one role, with their client spans when tracing.
class Caller {
 public:
  Caller(int port, std::string role, bool keep_spans, PhaseResult* out)
      : conn_(port), role_(std::move(role)), keep_(keep_spans), out_(out) {}

  Response Call(const char* method, const std::string& kb,
                const std::string& endpoint, const std::string& path,
                const std::string& body) {
    const std::string id = role_ + "-" + std::to_string(seq_++);
    Response r = conn_.Round(method, path, body, id);
    if (keep_) {
      Span span;
      span.id = id;
      span.name = endpoint;
      span.start = r.sent;
      span.end = r.received;
      span.status = r.status;
      span.kb = kb;
      out_->client_spans.push_back(std::move(span));
    }
    return r;
  }
  /// Attach the served version to the span of the last call.
  void NoteVersion(uint64_t version) {
    if (keep_ && !out_->client_spans.empty()) {
      out_->client_spans.back().version = version;
    }
  }

 private:
  HttpConnection conn_;
  std::string role_;
  bool keep_;
  uint64_t seq_ = 0;
  PhaseResult* out_;
};

struct ReadPick {
  std::string kb;
  std::string endpoint;
  std::string path;
  uint64_t as_of = 0;
};

ReadPick PickRead(tc::Rng* rng, Window* w) {
  static const char* kPrefixes[] = {"", "p", "pl", "plays", "b", "birth",
                                    "l", "loc", "w"};
  static const int kLimits[] = {5, 25, 100};
  ReadPick pick;
  const WorkloadSpec& spec = *w->spec;
  if (spec.conflict_stats_reads) {
    // Mostly stats; every conflicts read lands on a version no one has
    // read yet, so it computes a fresh report. graph/complete keep every
    // read layer sampled.
    pick.kb = "kb0";
    const double e = rng->NextDouble();
    if (e < 0.1) {
      pick.endpoint = "conflicts";
      pick.path = KbPath(pick.kb, "conflicts?limit=25");
    } else if (e < 0.2) {
      pick.endpoint = "graph";
      pick.path = KbPath(pick.kb, "graph");
    } else if (e < 0.3) {
      pick.endpoint = "complete";
      pick.path = KbPath(pick.kb, "complete?prefix=plays");
    } else {
      pick.endpoint = "stats";
      pick.path = KbPath(pick.kb, "stats");
    }
    return pick;
  }
  // Skewed over KBs: kb k is picked with weight 1/(k+1).
  double total = 0.0;
  for (int k = 0; k < spec.football_kbs; ++k) total += 1.0 / (k + 1);
  double u = rng->NextDouble() * total;
  int k = 0;
  while (k + 1 < spec.football_kbs && u >= 1.0 / (k + 1)) {
    u -= 1.0 / (k + 1);
    ++k;
  }
  pick.kb = "kb" + std::to_string(k);
  const double e = rng->NextDouble();
  if (e < 0.25) {
    pick.endpoint = "graph";
    pick.path = KbPath(pick.kb, "graph");
  } else if (e < 0.5) {
    pick.endpoint = "stats";
    pick.path = KbPath(pick.kb, "stats");
  } else if (e < 0.7) {
    pick.endpoint = "complete";
    pick.path = KbPath(pick.kb, std::string("complete?prefix=") +
                                    kPrefixes[rng->Uniform(9)]);
  } else if (e < 0.9) {
    pick.endpoint = "conflicts";
    pick.path = KbPath(pick.kb, "conflicts?limit=" +
                                    std::to_string(kLimits[rng->Uniform(3)]));
  } else {
    // Time travel: one of the last three versions, all inside the
    // 8-version retention ring even while kb0 is being edited.
    const uint64_t current = w->versions[static_cast<size_t>(k)].load();
    const uint64_t back = rng->Uniform(3);
    pick.as_of = current > back + 1 ? current - back : 1;
    static const char* kEndpoints[] = {"graph", "stats", "conflicts"};
    pick.endpoint = kEndpoints[rng->Uniform(3)];
    pick.path = KbPath(pick.kb, pick.endpoint +
                                    (pick.endpoint == "conflicts"
                                         ? "?limit=25&as_of="
                                         : "?as_of=") +
                                    std::to_string(pick.as_of));
  }
  return pick;
}

void ReaderRole(int index, Window* w, PhaseResult* out) {
  tc::Rng rng(Mix(w->seed, 1000 + static_cast<uint64_t>(index)));
  Caller caller(w->port, "r" + std::to_string(index), w->keep_spans, out);
  const auto interval = std::chrono::nanoseconds(
      static_cast<int64_t>(1e9 / w->spec->reader_rate));
  TimePoint due = w->start + std::chrono::nanoseconds(static_cast<int64_t>(
                                 rng.NextDouble() * interval.count()));
  TimePoint free_at = w->start;
  auto read_once = [&](bool open, TimePoint from) {
    const ReadPick pick = PickRead(&rng, w);
    Response r = caller.Call("GET", pick.kb, pick.endpoint, pick.path, "");
    bool ok = r.status == 200;
    if (ok && (pick.as_of != 0 ||
               (w->keep_spans && pick.endpoint == "conflicts"))) {
      const uint64_t served = VersionOf(ParseOrNull(r.body));
      caller.NoteVersion(served);
      if (pick.as_of != 0 && served != pick.as_of) ok = false;
    }
    ++out->attempted;
    if (!ok) out->Fail("read " + pick.path + " -> " + std::to_string(r.status));
    if (open && due >= w->measure_from) {
      out->generator_late_us.push_back(
          MicrosBetween(std::max(due, free_at), r.sent));
      out->read_ms.push_back(ok ? MicrosBetween(from, r.received) / 1000.0
                                : kInf);
    }
    free_at = r.received;
    return ok;
  };
  // Open loop: one request per interval whatever the server does; each
  // read is timed from when it was due.
  while (due < w->open_end) {
    std::this_thread::sleep_until(due);
    read_once(true, due);
    due += interval;
  }
  // Closed loop on the same connection: capacity.
  const TimePoint closed_start = std::max(Clock::now(), w->open_end);
  uint64_t completed = 0;
  while (Clock::now() < w->deadline) {
    if (read_once(false, Clock::now())) ++completed;
  }
  const double seconds = MicrosBetween(closed_start, Clock::now()) / 1e6;
  out->closed_reads += completed;
  if (seconds > 0) out->closed_rps += static_cast<double>(completed) / seconds;
}

/// Live facts of kb0 as the client knows them (by quad), so every
/// retraction it sends names a fact that is live.
class LiveSet {
 public:
  explicit LiveSet(const std::vector<std::string>& quads) {
    for (const std::string& q : quads) Insert(q);
  }
  bool Contains(const std::string& q) const { return index_.count(q) != 0; }
  void Insert(const std::string& q) {
    if (index_.emplace(q, quads_.size()).second) quads_.push_back(q);
  }
  std::string TakeRandom(tc::Rng* rng) {
    const size_t i = static_cast<size_t>(rng->Uniform(quads_.size()));
    std::string q = quads_[i];
    index_.erase(q);
    if (i + 1 != quads_.size()) {
      quads_[i] = std::move(quads_.back());
      index_[quads_[i]] = i;
    }
    quads_.pop_back();
    return q;
  }
  size_t size() const { return quads_.size(); }

 private:
  std::vector<std::string> quads_;
  std::unordered_map<std::string, size_t> index_;
};

/// Insert of a fact kb0 does not hold yet: a playsFor spell of a known
/// or a new player, which the constraints read, or with `relocation` a
/// team's location, which no constraint reads (so the publish carries the
/// conflict report forward instead of invalidating it).
std::string InsertLine(const KbInput& kb, bool relocation, tc::Rng* rng,
                       uint64_t* fresh, LiveSet* live) {
  for (;;) {
    const std::string& team = kb.teams[rng->Uniform(kb.teams.size())];
    const int64_t begin = 1985 + static_cast<int64_t>(rng->Uniform(30));
    const int64_t end = begin + static_cast<int64_t>(rng->Uniform(9));
    std::string quad;
    if (relocation) {
      quad = team + " locatedIn " + kb.cities[rng->Uniform(kb.cities.size())];
    } else {
      quad = (rng->Uniform(2) == 0
                  ? kb.players[rng->Uniform(kb.players.size())]
                  : "SvcPlayer" + std::to_string((*fresh)++)) +
             " playsFor " + team;
    }
    quad += tc::StringPrintf(" [%lld,%lld]", static_cast<long long>(begin),
                             static_cast<long long>(end));
    if (live->Contains(quad)) continue;
    live->Insert(quad);
    return tc::StringPrintf("+ %s %.4f .\n", quad.c_str(),
                            0.3 + 0.0001 * static_cast<double>(
                                               rng->Uniform(6000)));
  }
}

void EditorRole(Window* w, PhaseResult* out, int64_t* live_delta) {
  const KbInput& kb = w->inputs->kbs.front();
  tc::Rng rng(Mix(w->seed, 2000));
  LiveSet live(kb.quads);
  uint64_t fresh = 0;
  Caller caller(w->port, "e", w->keep_spans, out);
  const std::string path = KbPath(kb.name, "edits");
  const auto interval = std::chrono::nanoseconds(
      static_cast<int64_t>(1e9 / kEditRate));
  static const size_t kBatchSizes[] = {1, 4, 16, 64};
  TimePoint due = w->start;
  TimePoint first_sent{};
  TimePoint last_ack{};
  for (;;) {
    if (w->spec->churn_editor) {
      if (Clock::now() >= w->deadline) break;
    } else {
      if (due >= w->deadline) break;
      std::this_thread::sleep_until(due);
      due += interval;
    }
    std::string script;
    if (w->spec->churn_editor) {
      const size_t size = kBatchSizes[out->edits.size() % 4];
      for (size_t i = 0; i < size; ++i) {
        if (rng.Uniform(2) == 0 && live.size() > 0) {
          script += "- " + live.TakeRandom(&rng) + " .\n";
        } else {
          script += InsertLine(kb, false, &rng, &fresh, &live);
        }
      }
    } else {
      script = InsertLine(kb, true, &rng, &fresh, &live);
    }
    Json body = Json::Object();
    body.Set("script", Json::Str(script));
    body.Set("max_facts", Json::Int(0));
    if (!w->spec->churn_editor) {
      // A single insert is re-solved on one thread, leaving the other
      // cores to the readers it runs beside.
      body.Set("threads", Json::Int(1));
      body.Set("ground_threads", Json::Int(1));
    }
    const Response r =
        caller.Call("POST", kb.name, "edits", path, body.Dump());
    const Json json = r.status == 200 ? ParseOrNull(r.body) : Json::Null();
    const uint64_t version = VersionOf(json);
    const bool ok = r.status == 200 && version != 0;
    ++out->attempted;
    if (!ok) {
      out->Fail("edit -> " + std::to_string(r.status) + " " +
                r.body.substr(0, 200));
    }
    const bool measured = r.sent >= w->measure_from;
    if (measured && first_sent == TimePoint{}) first_sent = r.sent;
    if (!ok) {
      if (measured) out->edit_ms.push_back(kInf);
      continue;
    }
    caller.NoteVersion(version);
    if (measured) {
      last_ack = r.received;
      out->edit_ms.push_back(MicrosBetween(r.sent, r.received) / 1000.0);
    }
    *live_delta += json.GetInt("inserted", 0) - json.GetInt("retracted", 0);
    AckedEdit acked;
    acked.script = std::move(script);
    acked.version = version;
    acked.sent = r.sent;
    acked.acked = r.received;
    acked.measured = measured;
    out->edits.push_back(std::move(acked));
    w->versions[0].store(version);
    w->last_acked.store(version);
  }
  if (last_ack > first_sent) {
    out->edit_seconds = MicrosBetween(first_sent, last_ack) / 1e6;
  }
}

/// Reads kb0's event stream until the writers are done and it has seen
/// the last acknowledged version. Every version must arrive exactly once
/// and in order.
void SubscriberRole(Window* w, SseStream* sse, uint64_t first_version,
                    std::vector<std::pair<uint64_t, TimePoint>>* seen,
                    PhaseResult* out) {
  uint64_t last = first_version;
  TimePoint done_at{};
  for (;;) {
    SseStream::Event event;
    const int got =
        sse->Next(&event, Clock::now() + std::chrono::milliseconds(20));
    if (got < 0) {
      out->Check(false, "event stream ended early");
      return;
    }
    if (got == 1 && event.type == "snapshot") {
      out->Check(event.id == last + 1,
                 tc::StringPrintf("event version %llu after %llu",
                                  (unsigned long long)event.id,
                                  (unsigned long long)last));
      last = std::max(last, event.id);
      seen->emplace_back(event.id, event.received);
    } else if (got == 1) {
      out->Check(false, "unexpected event '" + event.type + "'");
    }
    if (w->writers_done.load()) {
      if (done_at == TimePoint{}) done_at = Clock::now();
      if (last >= w->last_acked.load()) return;
      if (Clock::now() - done_at > std::chrono::seconds(5)) return;
    }
  }
}

void ColdRole(Window* w, PhaseResult* out, KbExpect* left) {
  const Inputs& in = *w->inputs;
  Caller caller(w->port, "c", w->keep_spans, out);
  for (uint64_t i = 0;; ++i) {
    const std::string kb = "cold" + std::to_string(i);
    Response r = caller.Call("POST", kb, "create", "/v1/kb",
                             Body("name", kb));
    out->Check(r.status == 201, "create " + kb);
    const TimePoint begin = Clock::now();
    r = caller.Call("POST", kb, "upload", KbPath(kb, "graph"), in.cold_body);
    out->Check(r.status == 200, "upload " + kb + " -> " +
                                    std::to_string(r.status));
    const int64_t facts = ParseOrNull(r.body).GetInt("num_live_facts", -1);
    r = caller.Call("POST", kb, "rules", KbPath(kb, "rules"),
                    Body("text", in.cold_rules_text));
    out->Check(r.status == 200, "rules " + kb);
    r = caller.Call("POST", kb, "solve", KbPath(kb, "solve"),
                    "{\"max_facts\":0}");
    const Json solved = ParseOrNull(r.body);
    out->resolve_s.push_back(MicrosBetween(begin, r.received) / 1e6);
    out->Check(r.status == 200 &&
                   solved.GetNumber("objective", -1.0) == in.cold.objective &&
                   static_cast<size_t>(solved.GetInt("kept", -1)) ==
                       in.cold.kept &&
                   static_cast<size_t>(solved.GetInt("removed", -1)) ==
                       in.cold.removed,
               "cold solve differs from the in-process solve");
    r = caller.Call("GET", kb, "conflicts", KbPath(kb, "conflicts?limit=25"),
                    "");
    out->Check(r.status == 200, "conflicts " + kb);
    r = caller.Call("POST", kb, "mine", KbPath(kb, "mine"), "{}");
    out->Check(r.status == 200, "mine " + kb);
    out->mine_ms.push_back(MicrosBetween(r.sent, r.received) / 1000.0);
    ++out->cold_iterations;
    if (Clock::now() >= w->deadline) {
      // The last graph stays for the crash-recovery probe.
      left->name = kb;
      left->version = VersionOf(solved);
      left->live_facts = facts;
      return;
    }
    r = caller.Call("DELETE", kb, "delete", "/v1/kb/" + kb, "");
    out->Check(r.status == 200, "delete " + kb);
  }
}

void Merge(PhaseResult* into, PhaseResult&& from) {
  auto append = [](std::vector<double>* a, const std::vector<double>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  append(&into->read_ms, from.read_ms);
  append(&into->generator_late_us, from.generator_late_us);
  into->closed_reads += from.closed_reads;
  into->closed_rps += from.closed_rps;
  append(&into->edit_ms, from.edit_ms);
  into->edit_seconds += from.edit_seconds;
  append(&into->resolve_s, from.resolve_s);
  append(&into->mine_ms, from.mine_ms);
  into->cold_iterations += from.cold_iterations;
  into->attempted += from.attempted;
  into->failed += from.failed;
  for (std::string& f : from.failures) {
    if (into->failures.size() < 20) into->failures.push_back(std::move(f));
  }
  for (AckedEdit& e : from.edits) into->edits.push_back(std::move(e));
  for (Span& s : from.client_spans) into->client_spans.push_back(std::move(s));
}

/// Create and seed every FootballDB KB: upload, constraints, solve, and
/// one conflicts read so steady-state reads start warm.
bool SeedKbs(const WorkloadSpec& spec, const Inputs& in, int port,
             bool keep_spans, int round, PhaseResult* out,
             std::vector<KbExpect>* expect) {
  Caller caller(port, "s" + std::to_string(round), keep_spans, out);
  expect->clear();
  for (const KbInput& kb : in.kbs) {
    Response r =
        caller.Call("POST", kb.name, "create", "/v1/kb", Body("name", kb.name));
    if (r.status != 201) return false;
    const TimePoint begin = Clock::now();
    r = caller.Call("POST", kb.name, "upload", KbPath(kb.name, "graph"),
                    kb.graph_body);
    if (r.status != 200) return false;
    KbExpect e;
    e.name = kb.name;
    e.live_facts = ParseOrNull(r.body).GetInt("num_live_facts", -1);
    r = caller.Call("POST", kb.name, "rules", KbPath(kb.name, "rules"),
                    Body("text", in.rules_text));
    if (r.status != 200) return false;
    r = caller.Call("POST", kb.name, "solve", KbPath(kb.name, "solve"),
                    "{\"max_facts\":0}");
    if (r.status != 200) return false;
    if (!spec.cold_loop) {
      out->resolve_s.push_back(MicrosBetween(begin, r.received) / 1e6);
    }
    e.version = VersionOf(ParseOrNull(r.body));
    r = caller.Call("GET", kb.name, "conflicts",
                    KbPath(kb.name, "conflicts?limit=0"), "");
    if (r.status != 200) return false;
    expect->push_back(e);
  }
  return true;
}

/// The served result of kb0 must equal an in-process from-scratch solve
/// of the same final graph, bit for bit.
void CheckFinalSolve(const Inputs& in, int port, PhaseResult* out) {
  HttpConnection conn(port);
  const Response r = conn.Round("POST", KbPath("kb0", "solve"),
                                "{\"max_facts\":0}", "final-solve");
  const Json served = ParseOrNull(r.body);
  auto graph = tc::rdf::ParseGraphText(in.kbs.front().graph_text);
  bool ok = r.status == 200 && graph.ok();
  for (size_t i = 0; ok && i < out->edits.size(); ++i) {
    auto edits = tc::core::ParseEditScript(out->edits[i].script, &*graph);
    ok = edits.ok() && tc::core::ApplyGraphEdits(*edits, &*graph).ok();
  }
  if (ok) {
    tc::rdf::TemporalGraph compact = graph->CompactLive();
    const tc::rules::RuleSet rules = *tc::rules::ParseRules(in.rules_text);
    tc::core::Resolver resolver(&compact, rules, {});
    auto ref = resolver.Run();
    ok = ref.ok() &&
         served.GetNumber("objective", -1.0) == ref->objective &&
         static_cast<size_t>(served.GetInt("kept", -1)) ==
             ref->kept_facts.size() &&
         static_cast<size_t>(served.GetInt("removed", -1)) ==
             ref->removed_facts.size();
  }
  out->Check(ok, "served kb0 result differs from the in-process solve");
}

}  // namespace

// ----------------------------------------------------------------- phase

PhaseResult RunPhase(const WorkloadSpec& spec, const Inputs& inputs,
                     Target* target, const PhaseOptions& options) {
  namespace fs = std::filesystem;
  PhaseResult result;
  std::vector<KbExpect> expect;

  // ---- set-up: spawn until seeded and ready, several times
  for (int s = 0; s < options.setups; ++s) {
    fs::remove_all(options.data_dir);
    fs::create_directories(options.data_dir);
    const TimePoint begin = Clock::now();
    const bool ok = target->Start(options.data_dir) &&
                    SeedKbs(spec, inputs, target->port(),
                            options.keep_client_spans, s, &result, &expect);
    result.setup_s.push_back(MicrosBetween(begin, Clock::now()) / 1e6);
    result.Check(ok, "set-up failed");
    if (!ok) return result;
    if (s + 1 < options.setups) target->Stop();
  }

  if (options.hooks.before_window) options.hooks.before_window();
  // ---- cold_resolve: the cold loop alone for the window's length; then
  // the tenant's traffic alone, on the server the loop left behind.
  KbExpect cold_left;
  if (spec.cold_loop) {
    Window cold;
    cold.inputs = &inputs;
    cold.port = target->port();
    cold.keep_spans = options.keep_client_spans;
    cold.deadline = Clock::now() + std::chrono::microseconds(static_cast<int64_t>(
                                       options.seconds * 1e6));
    ColdRole(&cold, &result, &cold_left);
  }

  // ---- measured window
  Window w;
  w.spec = &spec;
  w.inputs = &inputs;
  w.port = target->port();
  w.seed = options.seed;
  w.keep_spans = options.keep_client_spans;
  for (size_t k = 0; k < expect.size() && k < w.versions.size(); ++k) {
    w.versions[k].store(expect[k].version);
  }
  SseStream sse(w.port, KbPath("kb0", "subscribe"));
  SseStream::Event initial;
  const bool subscribed =
      sse.Next(&initial, Clock::now() + std::chrono::seconds(10)) == 1 &&
      initial.type == "snapshot";
  result.Check(subscribed, "subscribe to kb0 failed");
  if (!subscribed) return result;
  w.start = Clock::now() + std::chrono::milliseconds(20);
  w.measure_from = w.start + kWarmUp;
  w.deadline = w.measure_from +
               std::chrono::microseconds(
                   static_cast<int64_t>(options.seconds * 1e6));
  w.open_end = w.measure_from + (w.deadline - w.measure_from) * 7 / 10;

  std::vector<PhaseResult> parts(static_cast<size_t>(spec.readers) + 2);
  std::vector<std::pair<uint64_t, TimePoint>> seen;
  int64_t live_delta = 0;
  std::vector<std::thread> threads;
  if (options.hooks.before_traffic) options.hooks.before_traffic();
  for (int r = 0; r < spec.readers; ++r) {
    threads.emplace_back(ReaderRole, r, &w, &parts[static_cast<size_t>(r)]);
  }
  PhaseResult& sse_part = parts[static_cast<size_t>(spec.readers)];
  threads.emplace_back(SubscriberRole, &w, &sse, initial.id, &seen,
                       &sse_part);
  // The editor runs on this thread: roles + this thread stay within the
  // four client threads.
  PhaseResult& edit_part = parts[static_cast<size_t>(spec.readers) + 1];
  EditorRole(&w, &edit_part, &live_delta);
  w.writers_done.store(true);
  for (std::thread& t : threads) t.join();
  if (options.hooks.after_window) options.hooks.after_window();
  for (PhaseResult& part : parts) Merge(&result, std::move(part));

  // Notification latency per acknowledged version.
  std::unordered_map<uint64_t, TimePoint> received(seen.begin(), seen.end());
  for (AckedEdit& e : result.edits) {
    if (!e.measured) continue;
    const auto it = received.find(e.version);
    result.Check(it != received.end(),
                 "no event for version " + std::to_string(e.version));
    if (it == received.end()) {
      result.notify_ms.push_back(kInf);
      continue;
    }
    result.notify_ms.push_back(MicrosBetween(e.sent, it->second) / 1000.0);
    result.fanout_us.push_back(MicrosBetween(e.acked, it->second));
  }

  // ---- probe period on the FootballDB workloads (the cold loop samples
  // its own): a scratch KB loaded, solved, mined and deleted over and
  // over, so resolve_s and mine_ms are sampled across seconds.
  if (!spec.cold_loop) {
    Caller caller(w.port, "p", options.keep_client_spans, &result);
    const KbInput& kb = inputs.kbs.front();
    const TimePoint until = Clock::now() + kProbePeriod;
    for (int i = 0; Clock::now() < until; ++i) {
      const std::string name = "probe" + std::to_string(i);
      Response r =
          caller.Call("POST", name, "create", "/v1/kb", Body("name", name));
      result.Check(r.status == 201, "create " + name);
      const TimePoint begin = Clock::now();
      r = caller.Call("POST", name, "upload", KbPath(name, "graph"),
                      kb.graph_body);
      result.Check(r.status == 200, "upload " + name);
      r = caller.Call("POST", name, "rules", KbPath(name, "rules"),
                      Body("text", inputs.rules_text));
      result.Check(r.status == 200, "rules " + name);
      r = caller.Call("POST", name, "solve", KbPath(name, "solve"),
                      "{\"max_facts\":0}");
      result.Check(r.status == 200, "solve " + name);
      result.resolve_s.push_back(MicrosBetween(begin, r.received) / 1e6);
      r = caller.Call("POST", name, "mine", KbPath(name, "mine"), "{}");
      result.Check(r.status == 200, "mine " + name);
      result.mine_ms.push_back(MicrosBetween(r.sent, r.received) / 1000.0);
      r = caller.Call("DELETE", name, "delete", "/v1/kb/" + name, "");
      result.Check(r.status == 200, "delete " + name);
    }
  }
  CheckFinalSolve(inputs, w.port, &result);
  result.rss_mb = target->PeakRssMb();

  // ---- crash recovery: SIGKILL, restart on the same data dir, time until
  // every KB serves its last acknowledged version and fact count.
  if (!result.edits.empty()) expect[0].version = result.edits.back().version;
  expect[0].live_facts += live_delta;
  if (!cold_left.name.empty()) expect.push_back(cold_left);
  for (int i = 0; i < options.recoveries; ++i) {
    target->Kill();
    const TimePoint begin = Clock::now();
    const bool started = target->Start(options.data_dir);
    result.Check(started, "restart after SIGKILL failed");
    if (!started) break;
    HttpConnection conn(target->port());
    for (const KbExpect& e : expect) {
      const Response r =
          conn.Round("GET", "/v1/kb/" + e.name, "", "recover");
      const Json info = ParseOrNull(r.body);
      result.Check(r.status == 200 && VersionOf(info) == e.version &&
                       info.GetInt("num_live_facts", -1) == e.live_facts,
                   tc::StringPrintf("recovered %s at version %llu with %lld "
                                    "facts (want %llu, %lld)",
                                    e.name.c_str(),
                                    (unsigned long long)VersionOf(info),
                                    (long long)info.GetInt("num_live_facts",
                                                           -1),
                                    (unsigned long long)e.version,
                                    (long long)e.live_facts));
    }
    result.recovery_s.push_back(MicrosBetween(begin, Clock::now()) / 1e6);
  }
  target->Stop();
  return result;
}

}  // namespace svcbench
