#include "api/types.h"

#include <algorithm>

#include "api/version.h"
#include "util/string_util.h"

namespace tecore {
namespace api {

using util::Json;

namespace {

/// Reads an optional count member into `*out`. A negative value is an
/// error: cast to size_t it would wrap to a huge cap and switch it off.
Status ReadCount(const Json& json, const char* key, size_t* out) {
  const int64_t value = json.GetInt(key, static_cast<int64_t>(*out));
  if (value < 0) {
    return Status::InvalidArgument(StringPrintf("%s must be >= 0", key));
  }
  *out = static_cast<size_t>(value);
  return Status::OK();
}

/// One line of evidence for a mined rule, for the suggestion panel.
std::string Rationale(const mine::MinedRule& mined,
                      unsigned long long examined, double violation_rate) {
  const double violated = 100.0 * violation_rate;
  switch (mined.kind) {
    case mine::PatternKind::kDisjointness:
      return StringPrintf(
          "%llu same-subject '%s' pairs with different objects; %.1f%% "
          "overlap in time",
          examined, mined.predicate.c_str(), violated);
    case mine::PatternKind::kFunctional:
      return StringPrintf(
          "%llu temporally-overlapping '%s' pairs; %.1f%% disagree on the "
          "object",
          examined, mined.predicate.c_str(), violated);
    case mine::PatternKind::kPrecedence:
      return StringPrintf(
          "'%s' begins before '%s' on %.1f%% of %llu shared subjects",
          mined.predicate.c_str(), mined.second_predicate.c_str(),
          100.0 - violated, examined);
  }
  return "";
}

}  // namespace

// ------------------------------------------------------------- requests

Result<SolveRequest> SolveRequest::FromJson(const Json& json) {
  SolveRequest req;
  if (json.is_null()) return req;  // empty body -> defaults
  if (!json.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  const std::string solver = json.GetString("solver", "mln");
  if (solver == "mln") {
    req.options.solver = rules::SolverKind::kMln;
  } else if (solver == "psl") {
    req.options.solver = rules::SolverKind::kPsl;
  } else {
    return Status::InvalidArgument(
        StringPrintf("unknown solver '%s' (expected mln|psl)",
                     solver.c_str()));
  }
  req.options.derived_threshold =
      json.GetNumber("threshold", req.options.derived_threshold);
  TECORE_RETURN_NOT_OK(ReadCount(json, "max_facts", &req.max_facts));
  return req;
}

Result<EditsRequest> EditsRequest::FromJson(const Json& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  EditsRequest req;
  req.script = json.GetString("script", "");
  if (req.script.empty()) {
    return Status::InvalidArgument(
        "missing 'script' ('+ fact' inserts, '- fact' retracts)");
  }
  TECORE_ASSIGN_OR_RETURN(solve, SolveRequest::FromJson(json));
  req.solve = std::move(solve);
  return req;
}

Result<GraphRequest> GraphRequest::FromJson(const Json& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  GraphRequest req;
  req.text = json.GetString("text", "");
  req.path = json.GetString("path", "");
  if (req.text.empty() == req.path.empty()) {
    return Status::InvalidArgument(
        "exactly one of 'text' (inline .tq) or 'path' (server-side file) "
        "must be set");
  }
  return req;
}

Result<RulesRequest> RulesRequest::FromJson(const Json& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  RulesRequest req;
  req.text = json.GetString("text", "");
  if (req.text.empty()) {
    return Status::InvalidArgument("missing 'text' (rule-language source)");
  }
  return req;
}

Result<MineRequest> MineRequest::FromJson(const Json& json) {
  MineRequest req;
  if (json.is_null()) return req;  // empty body -> defaults
  if (!json.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  mine::MiningOptions& options = req.options;
  TECORE_RETURN_NOT_OK(ReadCount(json, "min_support", &options.min_support));
  TECORE_RETURN_NOT_OK(
      ReadCount(json, "max_patterns", &options.max_patterns));
  TECORE_RETURN_NOT_OK(ReadCount(json, "max_predicate_pairs",
                                 &options.max_predicate_pairs));
  TECORE_RETURN_NOT_OK(
      ReadCount(json, "max_bucket_facts", &options.max_bucket_facts));
  options.min_confidence =
      json.GetNumber("min_confidence", options.min_confidence);
  if (options.min_confidence < 0.0 || options.min_confidence > 1.0) {
    return Status::InvalidArgument("min_confidence must be in [0,1]");
  }
  req.adopt = json.GetBool("adopt", req.adopt);
  return req;
}

Result<KbCreateRequest> KbCreateRequest::FromJson(const Json& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  KbCreateRequest req;
  req.name = json.GetString("name", "");
  if (req.name.empty()) {
    return Status::InvalidArgument("missing 'name' (the kb to create)");
  }
  return req;
}

// ------------------------------------------------------------ responses

Json ResponseEnvelope(uint64_t version) {
  Json out = Json::Object();
  out.Set("version", Json::Int(static_cast<int64_t>(version)));
  out.Set("tecore", Json::Str(kTecoreVersion));
  return out;
}

Json GraphInfoJson(const Snapshot& snapshot) {
  Json out = ResponseEnvelope(snapshot.version);
  out.Set("has_graph", Json::Bool(snapshot.has_graph()));
  if (snapshot.has_graph()) {
    out.Set("num_facts",
            Json::Int(static_cast<int64_t>(snapshot.graph->NumFacts())));
    out.Set("num_live_facts",
            Json::Int(static_cast<int64_t>(snapshot.graph->NumLiveFacts())));
    // Frozen at publish: the shared dictionary may grow under concurrent
    // readers' grounding, so the live size is not stable for this version.
    out.Set("num_terms",
            Json::Int(static_cast<int64_t>(snapshot.num_terms)));
    out.Set("edit_epoch", Json::Int(static_cast<int64_t>(
                              snapshot.graph->edit_epoch())));
  }
  out.Set("num_rules", Json::Int(static_cast<int64_t>(snapshot.rules->Size())));
  out.Set("has_result", Json::Bool(snapshot.has_result()));
  return out;
}

Json StatsJson(const Snapshot& snapshot) {
  Json out = ResponseEnvelope(snapshot.version);
  const kb::GraphStatistics& s = *snapshot.stats;
  Json stats = Json::Object();
  stats.Set("num_facts", Json::Int(static_cast<int64_t>(s.num_facts)));
  stats.Set("num_distinct_subjects",
            Json::Int(static_cast<int64_t>(s.num_distinct_subjects)));
  stats.Set("num_distinct_predicates",
            Json::Int(static_cast<int64_t>(s.num_distinct_predicates)));
  stats.Set("num_distinct_objects",
            Json::Int(static_cast<int64_t>(s.num_distinct_objects)));
  Json counts = Json::Array();
  for (const auto& [name, count] : s.predicate_counts) {
    Json entry = Json::Object();
    entry.Set("predicate", Json::Str(name));
    entry.Set("count", Json::Int(static_cast<int64_t>(count)));
    counts.Append(std::move(entry));
  }
  stats.Set("predicate_counts", std::move(counts));
  Json histogram = Json::Array();
  for (size_t bin : s.confidence_histogram) {
    histogram.Append(Json::Int(static_cast<int64_t>(bin)));
  }
  stats.Set("confidence_histogram", std::move(histogram));
  stats.Set("mean_confidence", Json::Number(s.mean_confidence));
  stats.Set("min_time", Json::Int(s.min_time));
  stats.Set("max_time", Json::Int(s.max_time));
  stats.Set("mean_interval_duration", Json::Number(s.mean_interval_duration));
  out.Set("stats", std::move(stats));
  return out;
}

Json RulesJson(const Snapshot& snapshot) {
  Json out = ResponseEnvelope(snapshot.version);
  Json rules = Json::Array();
  for (const rules::Rule& rule : snapshot.rules->rules) {
    Json entry = Json::Object();
    entry.Set("name", Json::Str(rule.name));
    entry.Set("kind", Json::Str(rule.IsConstraint() ? "constraint"
                                                    : "inference_rule"));
    entry.Set("hard", Json::Bool(rule.hard));
    if (!rule.hard) entry.Set("weight", Json::Number(rule.weight));
    entry.Set("text", Json::Str(rule.ToString()));
    rules.Append(std::move(entry));
  }
  out.Set("num_rules", Json::Int(static_cast<int64_t>(rules.Size())));
  out.Set("rules", std::move(rules));
  return out;
}

Json CompleteJson(const Snapshot& snapshot, const std::string& prefix) {
  Json out = ResponseEnvelope(snapshot.version);
  out.Set("prefix", Json::Str(prefix));
  Json completions = Json::Array();
  for (const std::string& name : snapshot.CompletePredicate(prefix)) {
    completions.Append(Json::Str(name));
  }
  out.Set("completions", std::move(completions));
  return out;
}

Json SuggestJson(const Snapshot& snapshot, const mine::MiningReport& report) {
  Json out = ResponseEnvelope(snapshot.version);
  Json items = Json::Array();
  for (const mine::MinedRule& mined : report.rules) {
    // Every emitted rule has at least one instance.
    const unsigned long long examined = mined.support + mined.violations;
    const double violation_rate = static_cast<double>(mined.violations) /
                                  static_cast<double>(examined);
    Json entry = Json::Object();
    entry.Set("rule", Json::Str(mined.rule.ToString()));
    entry.Set("support", Json::Int(static_cast<int64_t>(examined)));
    entry.Set("violation_rate", Json::Number(violation_rate));
    entry.Set("rationale",
              Json::Str(Rationale(mined, examined, violation_rate)));
    items.Append(std::move(entry));
  }
  out.Set("num_suggestions", Json::Int(static_cast<int64_t>(items.Size())));
  out.Set("suggestions", std::move(items));
  return out;
}

Json MineJson(uint64_t version, const mine::MiningReport& report,
              const mine::MiningOptions& options) {
  Json out = ResponseEnvelope(version);
  Json opts = Json::Object();
  opts.Set("min_support",
           Json::Int(static_cast<int64_t>(options.min_support)));
  opts.Set("min_confidence", Json::Number(options.min_confidence));
  opts.Set("max_patterns",
           Json::Int(static_cast<int64_t>(options.max_patterns)));
  opts.Set("max_predicate_pairs",
           Json::Int(static_cast<int64_t>(options.max_predicate_pairs)));
  opts.Set("max_bucket_facts",
           Json::Int(static_cast<int64_t>(options.max_bucket_facts)));
  out.Set("options", std::move(opts));
  Json counters = Json::Object();
  counters.Set("predicates_profiled",
               Json::Int(static_cast<int64_t>(report.predicates_profiled)));
  counters.Set("predicates_skipped",
               Json::Int(static_cast<int64_t>(report.predicates_skipped)));
  counters.Set("pairs_examined",
               Json::Int(static_cast<int64_t>(report.pairs_examined)));
  counters.Set("pairs_dropped",
               Json::Int(static_cast<int64_t>(report.pairs_dropped)));
  counters.Set("patterns_considered",
               Json::Int(static_cast<int64_t>(report.patterns_considered)));
  counters.Set("patterns_dropped",
               Json::Int(static_cast<int64_t>(report.patterns_dropped)));
  counters.Set("truncated_buckets",
               Json::Int(static_cast<int64_t>(report.truncated_buckets)));
  out.Set("counters", std::move(counters));
  out.Set("mine_time_ms", Json::Number(report.mine_time_ms));
  Json rules = Json::Array();
  for (const mine::MinedRule& mined : report.rules) {
    Json entry = Json::Object();
    entry.Set("name", Json::Str(mined.rule.name));
    entry.Set("kind", Json::Str(mine::PatternKindName(mined.kind)));
    entry.Set("predicate", Json::Str(mined.predicate));
    if (!mined.second_predicate.empty()) {
      entry.Set("second_predicate", Json::Str(mined.second_predicate));
    }
    entry.Set("support", Json::Int(static_cast<int64_t>(mined.support)));
    entry.Set("violations",
              Json::Int(static_cast<int64_t>(mined.violations)));
    entry.Set("confidence", Json::Number(mined.confidence));
    entry.Set("violation_mass", Json::Number(mined.violation_mass));
    entry.Set("hard", Json::Bool(mined.rule.hard));
    if (!mined.rule.hard) entry.Set("weight", Json::Number(mined.rule.weight));
    entry.Set("text", Json::Str(mined.rule.ToString()));
    rules.Append(std::move(entry));
  }
  out.Set("num_rules", Json::Int(static_cast<int64_t>(rules.Size())));
  out.Set("rules", std::move(rules));
  out.Set("tcr", Json::Str(mine::WriteMinedRulesText(report, options)));
  return out;
}

Json ConflictsJson(const Snapshot& snapshot,
                   const core::ConflictReport& report, size_t limit) {
  Json out = ResponseEnvelope(snapshot.version);
  out.Set("num_input_facts",
          Json::Int(static_cast<int64_t>(report.num_input_facts)));
  out.Set("num_conflicts",
          Json::Int(static_cast<int64_t>(report.NumConflicts())));
  out.Set("num_conflicting_facts",
          Json::Int(static_cast<int64_t>(report.NumConflictingFacts())));
  out.Set("detect_time_ms", Json::Number(report.detect_time_ms));
  Json per_rule = Json::Array();
  for (size_t i = 0; i < report.per_rule_counts().size(); ++i) {
    if (report.per_rule_counts()[i] == 0) continue;
    const rules::Rule& rule = snapshot.rules->rules[i];
    Json entry = Json::Object();
    entry.Set("rule", Json::Str(rule.name.empty()
                                    ? StringPrintf("#%zu", i)
                                    : rule.name));
    entry.Set("count",
              Json::Int(static_cast<int64_t>(report.per_rule_counts()[i])));
    per_rule.Append(std::move(entry));
  }
  out.Set("per_rule", std::move(per_rule));
  Json conflicts = Json::Array();
  const size_t listed = std::min(limit, report.conflicts().size());
  for (size_t i = 0; i < listed; ++i) {
    const core::Conflict& c = report.conflicts()[i];
    Json entry = Json::Object();
    const rules::Rule& rule =
        snapshot.rules->rules[static_cast<size_t>(c.rule_index)];
    entry.Set("rule", Json::Str(rule.name.empty()
                                    ? StringPrintf("#%d", c.rule_index)
                                    : rule.name));
    Json facts = Json::Array();
    for (rdf::FactId id : c.facts) {
      facts.Append(Json::Str(snapshot.graph->FactToString(id)));
    }
    entry.Set("facts", std::move(facts));
    conflicts.Append(std::move(entry));
  }
  out.Set("conflicts", std::move(conflicts));
  out.Set("truncated", Json::Bool(listed < report.conflicts().size()));
  return out;
}

Json SolveJson(uint64_t version, const rdf::TemporalGraph& graph,
               const core::ResolveResult& result, size_t max_facts,
               bool cached) {
  Json out = ResponseEnvelope(version);
  out.Set("solver", Json::Str(result.solver_name));
  out.Set("cached", Json::Bool(cached));
  out.Set("feasible", Json::Bool(result.feasible));
  out.Set("optimal", Json::Bool(result.optimal));
  out.Set("objective", Json::Number(result.objective));
  out.Set("kept", Json::Int(static_cast<int64_t>(result.kept_facts.size())));
  out.Set("removed",
          Json::Int(static_cast<int64_t>(result.removed_facts.size())));
  out.Set("derived",
          Json::Int(static_cast<int64_t>(result.derived_facts.size())));
  out.Set("derived_below_threshold",
          Json::Int(static_cast<int64_t>(result.derived_below_threshold)));
  out.Set("ground_atoms",
          Json::Int(static_cast<int64_t>(result.ground_atoms)));
  out.Set("ground_clauses",
          Json::Int(static_cast<int64_t>(result.ground_clauses)));
  out.Set("num_components",
          Json::Int(static_cast<int64_t>(result.num_components)));
  out.Set("largest_component",
          Json::Int(static_cast<int64_t>(result.largest_component)));
  out.Set("spliced_components",
          Json::Int(static_cast<int64_t>(result.spliced_components)));
  out.Set("dirty_components",
          Json::Int(static_cast<int64_t>(result.dirty_components)));
  out.Set("ground_time_ms", Json::Number(result.ground_time_ms));
  out.Set("solve_time_ms", Json::Number(result.solve_time_ms));
  out.Set("total_time_ms", Json::Number(result.total_time_ms));
  // The facts themselves, capped: removed (the noisy ones) and derived
  // (the materialized implicit knowledge) are what the results browser
  // shows; kept facts are usually the bulk, listed last under the same cap.
  Json removed = Json::Array();
  for (size_t i = 0; i < result.removed_facts.size() && i < max_facts; ++i) {
    removed.Append(Json::Str(graph.FactToString(result.removed_facts[i])));
  }
  out.Set("removed_facts", std::move(removed));
  Json derived = Json::Array();
  for (size_t i = 0; i < result.derived_facts.size() && i < max_facts; ++i) {
    const core::DerivedFact& df = result.derived_facts[i];
    Json entry = Json::Object();
    // Derived facts carry term ids of the solved graph's dictionary,
    // which `graph` shares.
    entry.Set("fact", Json::Str(graph.FactToString(df.fact)));
    entry.Set("score", Json::Number(df.score));
    derived.Append(std::move(entry));
  }
  out.Set("derived_facts", std::move(derived));
  Json kept = Json::Array();
  for (size_t i = 0; i < result.kept_facts.size() && i < max_facts; ++i) {
    kept.Append(Json::Str(graph.FactToString(result.kept_facts[i])));
  }
  out.Set("kept_facts", std::move(kept));
  out.Set("truncated",
          Json::Bool(result.removed_facts.size() > max_facts ||
                     result.derived_facts.size() > max_facts ||
                     result.kept_facts.size() > max_facts));
  return out;
}

Json EditsJson(uint64_t version, const rdf::TemporalGraph& graph,
               const core::EditApplication& applied,
               const core::ResolveResult& result, size_t max_facts) {
  Json out = SolveJson(version, graph, result, max_facts, /*cached=*/false);
  out.Set("inserted", Json::Int(static_cast<int64_t>(applied.inserted)));
  out.Set("retracted", Json::Int(static_cast<int64_t>(applied.retracted)));
  return out;
}

Json KbInfoJson(const std::string& name, const Snapshot& snapshot) {
  Json out = GraphInfoJson(snapshot);
  out.Set("kb", Json::Str(name));
  return out;
}

Json KbListJson(const std::vector<EngineRegistry::KbInfo>& kbs) {
  Json out = Json::Object();
  out.Set("tecore", Json::Str(kTecoreVersion));
  out.Set("num_kbs", Json::Int(static_cast<int64_t>(kbs.size())));
  Json items = Json::Array();
  for (const EngineRegistry::KbInfo& kb : kbs) {
    items.Append(KbInfoJson(kb.name, *kb.snapshot));
  }
  out.Set("kbs", std::move(items));
  return out;
}

Json ErrorJson(const Status& status) {
  Json error = Json::Object();
  error.Set("code", Json::Str(StatusCodeName(status.code())));
  error.Set("message", Json::Str(status.message()));
  Json out = Json::Object();
  out.Set("error", std::move(error));
  return out;
}

int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kAlreadyExists:
      return 409;
    case StatusCode::kGone:
      return 410;
    case StatusCode::kUnauthenticated:
      return 401;
    case StatusCode::kPermissionDenied:
      return 403;
    case StatusCode::kUnsupported:
      return 501;
    case StatusCode::kTimeout:
      return 504;
    case StatusCode::kInternal:
    case StatusCode::kIoError:
    default:
      return 500;
  }
}

}  // namespace api
}  // namespace tecore
