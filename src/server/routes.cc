#include "server/routes.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/types.h"
#include "obs/access_log.h"
#include "obs/metrics.h"
#include "server/auth.h"
#include "util/json.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace tecore {
namespace server {

namespace {

using util::Json;

HttpResponse JsonResponse(int status, const Json& body) {
  HttpResponse out;
  out.status = status;
  out.body = body.Dump();
  out.body += '\n';  // curl-friendly
  return out;
}

HttpResponse ErrorResponse(const Status& status) {
  HttpResponse out =
      JsonResponse(api::HttpStatusFor(status), api::ErrorJson(status));
  if (status.code() == StatusCode::kUnauthenticated) {
    out.headers.emplace_back("WWW-Authenticate", "Bearer");
  }
  return out;
}

HttpResponse MethodNotAllowed(const std::string& method,
                              const char* allowed) {
  // Same envelope as ErrorResponse, but no StatusCode maps to 405 — the
  // wire code is the HTTP-specific "MethodNotAllowed".
  Json error = Json::Object();
  error.Set("code", Json::Str("MethodNotAllowed"));
  error.Set("message",
            Json::Str(StringPrintf("method %s not allowed (allowed: %s)",
                                   method.c_str(), allowed)));
  Json body = Json::Object();
  body.Set("error", std::move(error));
  HttpResponse out = JsonResponse(405, body);
  out.headers.emplace_back("Allow", allowed);
  return out;
}

/// Parse the request body as JSON; an empty body decodes as null (every
/// POST body in the protocol is optional unless the DTO says otherwise).
Result<Json> ParseBody(const HttpRequest& request) {
  if (Trim(request.body).empty()) return Json::Null();
  return Json::Parse(request.body);
}

/// The snapshot a read endpoint should serve: the current one, or — with
/// `?as_of=<version>` — a retained historical version (time travel).
/// InvalidArgument on a malformed version, NotFound when it was never
/// published, Gone when it fell out of the retention ring.
Result<std::shared_ptr<const api::Snapshot>> ResolveReadSnapshot(
    const api::Engine& engine, const HttpRequest& request) {
  const std::string as_of = request.QueryParam("as_of", "");
  if (as_of.empty()) return engine.snapshot();
  int64_t version = 0;
  if (!ParseInt64(as_of, &version) || version < 0) {
    return Status::InvalidArgument(StringPrintf(
        "bad as_of '%s' (expected a non-negative version)", as_of.c_str()));
  }
  return engine.SnapshotAt(static_cast<uint64_t>(version));
}

// --------------------------------------------------- per-KB endpoints
// Each handler runs only for a method its kEndpoints row allows: the
// router answers any other with 405 first.

HttpResponse HandleGraph(const std::shared_ptr<api::Engine>& engine,
                         const std::string& /*kb*/,
                         const HttpRequest& request) {
  if (request.method == "GET") {
    auto snap = ResolveReadSnapshot(*engine, request);
    if (!snap.ok()) return ErrorResponse(snap.status());
    return JsonResponse(200, api::GraphInfoJson(**snap));
  }
  auto body = ParseBody(request);
  if (!body.ok()) return ErrorResponse(body.status());
  auto req = api::GraphRequest::FromJson(*body);
  if (!req.ok()) return ErrorResponse(req.status());
  auto published = req->text.empty() ? engine->LoadGraphFile(req->path)
                                     : engine->LoadGraphText(req->text);
  if (!published.ok()) return ErrorResponse(published.status());
  // Describe the publish this write produced, not whatever a competing
  // writer may have published since.
  return JsonResponse(200, api::GraphInfoJson(**published));
}

HttpResponse HandleRules(const std::shared_ptr<api::Engine>& engine,
                         const std::string& /*kb*/,
                         const HttpRequest& request) {
  if (request.method == "GET") {
    auto snap = ResolveReadSnapshot(*engine, request);
    if (!snap.ok()) return ErrorResponse(snap.status());
    return JsonResponse(200, api::RulesJson(**snap));
  }
  if (request.method == "POST") {
    auto body = ParseBody(request);
    if (!body.ok()) return ErrorResponse(body.status());
    auto req = api::RulesRequest::FromJson(*body);
    if (!req.ok()) return ErrorResponse(req.status());
    auto outcome = engine->AddRulesText(req->text);
    if (!outcome.ok()) return ErrorResponse(outcome.status());
    Json out = api::RulesJson(*outcome->snapshot);
    out.Set("added", Json::Int(static_cast<int64_t>(outcome->added)));
    return JsonResponse(200, out);
  }
  auto cleared = engine->ClearRules();
  if (!cleared.ok()) return ErrorResponse(cleared.status());
  return JsonResponse(200, api::RulesJson(**cleared));
}

HttpResponse HandleSolve(const std::shared_ptr<api::Engine>& engine,
                         const std::string& /*kb*/,
                         const HttpRequest& request) {
  auto body = ParseBody(request);
  if (!body.ok()) return ErrorResponse(body.status());
  auto req = api::SolveRequest::FromJson(*body);
  if (!req.ok()) return ErrorResponse(req.status());
  auto outcome = engine->Solve(req->options);
  if (!outcome.ok()) return ErrorResponse(outcome.status());
  // Render against the snapshot the result was published with — version,
  // graph and result always come from the same publish even when a
  // concurrent write has already advanced the engine.
  return JsonResponse(
      200, api::SolveJson(outcome->version, *outcome->snapshot->graph,
                          *outcome->result, req->max_facts, outcome->cached));
}

HttpResponse HandleEdits(const std::shared_ptr<api::Engine>& engine,
                         const std::string& /*kb*/,
                         const HttpRequest& request) {
  auto body = ParseBody(request);
  if (!body.ok()) return ErrorResponse(body.status());
  auto req = api::EditsRequest::FromJson(*body);
  if (!req.ok()) return ErrorResponse(req.status());
  auto outcome = engine->ApplyEditScript(req->script, req->solve.options);
  if (!outcome.ok()) return ErrorResponse(outcome.status());
  return JsonResponse(
      200, api::EditsJson(outcome->version, *outcome->snapshot->graph,
                          outcome->applied, *outcome->result,
                          req->solve.max_facts));
}

HttpResponse HandleConflicts(const std::shared_ptr<api::Engine>& engine,
                             const std::string& /*kb*/,
                             const HttpRequest& request) {
  auto resolved = ResolveReadSnapshot(*engine, request);
  if (!resolved.ok()) return ErrorResponse(resolved.status());
  const auto& snap = *resolved;
  int64_t limit = 25;
  const std::string limit_param = request.QueryParam("limit", "");
  if (!limit_param.empty() &&
      (!ParseInt64(limit_param, &limit) || limit < 0)) {
    return ErrorResponse(Status::InvalidArgument(
        StringPrintf("bad limit '%s'", limit_param.c_str())));
  }
  auto report = snap->DetectConflicts();
  if (!report.ok()) return ErrorResponse(report.status());
  return JsonResponse(
      200, api::ConflictsJson(*snap, **report, static_cast<size_t>(limit)));
}

HttpResponse HandleStats(const std::shared_ptr<api::Engine>& engine,
                         const std::string& /*kb*/,
                         const HttpRequest& request) {
  auto resolved = ResolveReadSnapshot(*engine, request);
  if (!resolved.ok()) return ErrorResponse(resolved.status());
  const auto& snap = *resolved;
  if (!snap->has_graph()) {
    return ErrorResponse(Status::InvalidArgument("no graph loaded"));
  }
  return JsonResponse(200, api::StatsJson(*snap));
}

HttpResponse HandleComplete(const std::shared_ptr<api::Engine>& engine,
                            const std::string& /*kb*/,
                            const HttpRequest& request) {
  auto snap = ResolveReadSnapshot(*engine, request);
  if (!snap.ok()) return ErrorResponse(snap.status());
  return JsonResponse(
      200, api::CompleteJson(**snap, request.QueryParam("prefix", "")));
}

HttpResponse HandleSuggest(const std::shared_ptr<api::Engine>& engine,
                           const std::string& /*kb*/,
                           const HttpRequest& request) {
  auto body = ParseBody(request);
  if (!body.ok()) return ErrorResponse(body.status());
  // The mine body's miner fields; `adopt` is ignored (suggest is a read).
  auto req = api::MineRequest::FromJson(*body);
  if (!req.ok()) return ErrorResponse(req.status());
  auto resolved = ResolveReadSnapshot(*engine, request);
  if (!resolved.ok()) return ErrorResponse(resolved.status());
  const auto& snap = *resolved;
  auto report = snap->MineConstraints(req->options);
  if (!report.ok()) return ErrorResponse(report.status());
  return JsonResponse(200, api::SuggestJson(*snap, *report));
}

HttpResponse HandleMine(const std::shared_ptr<api::Engine>& engine,
                        const std::string& /*kb*/,
                        const HttpRequest& request) {
  auto body = ParseBody(request);
  if (!body.ok()) return ErrorResponse(body.status());
  auto req = api::MineRequest::FromJson(*body);
  if (!req.ok()) return ErrorResponse(req.status());
  auto resolved = ResolveReadSnapshot(*engine, request);
  if (!resolved.ok()) return ErrorResponse(resolved.status());
  const auto& snap = *resolved;
  auto report = snap->MineConstraints(req->options);
  if (!report.ok()) return ErrorResponse(report.status());
  Json out = api::MineJson(snap->version, *report, req->options);
  if (req->adopt) {
    // Adoption goes through the normal rule write path: WAL-logged,
    // serialized with other writers, published as a new version.
    auto adopted = engine->AddRules(report->ToRuleSet());
    if (!adopted.ok()) return ErrorResponse(adopted.status());
    out.Set("adopted", Json::Bool(true));
    out.Set("added",
            Json::Int(static_cast<int64_t>(report->rules.size())));
    out.Set("adopted_version",
            Json::Int(static_cast<int64_t>((*adopted)->version)));
  } else {
    out.Set("adopted", Json::Bool(false));
  }
  return JsonResponse(200, out);
}

// -------------------------------------------------------- subscriptions

/// Mailbox between a tenant engine's publish hook (writer thread) and the
/// SSE connection worker draining it. Owned jointly via shared_ptr: the
/// listener may outlive the stream by one in-flight publish.
struct SseSubscriber {
  util::Mutex mutex;
  util::CondVar cv;
  std::deque<std::shared_ptr<const api::Snapshot>> queue
      TECORE_GUARDED_BY(mutex);
  bool closed TECORE_GUARDED_BY(mutex) = false;
};

/// One wire event. SSE framing: optional `id:`/`event:` lines, one
/// `data:` line (our payloads are single-line JSON), blank-line
/// terminator.
std::string SseEvent(const char* event, const Json& data,
                     uint64_t id, bool with_id) {
  std::string out;
  if (with_id) out += StringPrintf("id: %llu\n", (unsigned long long)id);
  out += StringPrintf("event: %s\ndata: ", event);
  out += data.Dump();
  out += "\n\n";
  return out;
}

/// Sentinel for "no Last-Event-ID supplied" (a real resume version can
/// never reach it: versions count publishes).
constexpr uint64_t kNoResume = ~0ull;

/// Does a `?predicates=` filter match this snapshot's publish? True when
/// the filter is empty (unfiltered stream), when the snapshot does not
/// know what its write touched (`touched == nullptr` — graph loads, rule
/// writes, recovery: conservatively deliver), or when the sorted
/// touched-predicate list intersects the sorted filter. A snapshot with
/// an *empty* touched list (e.g. a solve) touched no predicate, so a
/// filtered stream skips it.
bool FilterMatches(const std::vector<std::string>& filter,
                   const api::Snapshot& snap) {
  if (filter.empty()) return true;
  if (snap.touched == nullptr) return true;
  const std::vector<std::string>& touched = *snap.touched;
  size_t i = 0, j = 0;
  while (i < filter.size() && j < touched.size()) {
    const int cmp = filter[i].compare(touched[j]);
    if (cmp == 0) return true;
    if (cmp < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

/// The long-lived body of `GET /v1/kb/{name}/subscribe`: push one
/// `snapshot` event per publish, in version order, with no gaps or
/// duplicates. Runs on a connection worker until the client disconnects,
/// the server stops, the KB is deleted (final `close` event) or
/// `max_events` is reached.
///
/// Resume: when the client reconnects with `Last-Event-ID: <version>`
/// (or `?last_event_id=`), the edit scripts it missed are replayed from
/// the KB's edit log as `edit` events (id = version, data carries the
/// canonical `+`/`-` script), followed by the current `snapshot` event.
/// When the missed range has left the log's tail — or the KB is
/// in-memory — the stream falls back to the snapshot alone, which is
/// always a complete resync point.
///
/// Filtering: `?predicates=p1,p2` narrows the stream to versions whose
/// write touched one of the listed predicates (see FilterMatches for the
/// exact semantics). Suppressed versions still advance the stream's
/// resume cursor via a `: skip <version>` comment, so `Last-Event-ID`
/// reconnects stay gap-free; they do not count toward `max_events`. The
/// initial snapshot and the edit-log fallback replay are always
/// unfiltered (both are resync points, not publish notifications).
void StreamSubscription(const std::shared_ptr<api::Engine>& engine,
                        const std::string& kb, uint64_t max_events,
                        uint64_t resume_after,
                        const std::vector<std::string>& predicates,
                        ResponseStream* stream) {
  // Live-stream gauge: up for the lifetime of this connection worker.
  // The shared_ptr handle stays valid even if the KB (and its series)
  // is deleted mid-stream.
  const auto subscribers = obs::Registry::Default()->GetGauge(
      "tecore_kb_sse_subscribers", {{"kb", kb}});
  subscribers->Add(1);
  auto sub = std::make_shared<SseSubscriber>();
  const uint64_t listener = engine->AddPublishListener(
      [sub](std::shared_ptr<const api::Snapshot> snap) {
        util::MutexLock lock(sub->mutex);
        if (snap == nullptr) {
          sub->closed = true;
        } else {
          sub->queue.push_back(std::move(snap));
        }
        sub->cv.NotifyAll();
      });
  // Register-then-read closes the gap: any publish after this read lands
  // in the queue, any publish before it is covered by `initial`, and
  // overlap is deduped by version below.
  auto initial = engine->snapshot();
  uint64_t last_version = initial->version;
  uint64_t sent = 0;
  bool alive = true;
  bool send_initial = true;
  if (resume_after != kNoResume && resume_after == initial->version) {
    // The client is exactly current: nothing to replay, and repeating the
    // snapshot it already has would be a duplicate. A client *ahead* of
    // the server (resume_after > version — possible only when the server
    // lost state, e.g. a restart under --fsync never) instead falls
    // through to the snapshot below: on an idle KB no publish may ever
    // come, so staying silent would leave it on stale state indefinitely,
    // and the snapshot is the resync point.
    send_initial = false;
  } else if (resume_after != kNoResume && resume_after < initial->version) {
    // Preferred resume path: replay the retained snapshot chain — every
    // missed version as its own `snapshot` event, gap-free or nothing by
    // RetainedSince's contract. Retention makes this O(missed) pointer
    // chasing with no WAL read, and it covers writes edit scripts cannot
    // express (rule changes, solves, graph loads).
    const auto retained = engine->RetainedSince(resume_after);
    if (!retained.empty()) {
      for (const auto& snap : retained) {
        if (!FilterMatches(predicates, *snap)) {
          alive = stream->Write(StringPrintf(
              ": skip %llu\n\n", (unsigned long long)snap->version));
          if (!alive) break;
          last_version = snap->version;
          continue;
        }
        alive = stream->Write(SseEvent("snapshot", api::KbInfoJson(kb, *snap),
                                       snap->version, true));
        if (!alive) break;
        ++sent;
        last_version = snap->version;
      }
      // The chain ends at (or after) `initial`; repeating it would be a
      // duplicate. Anything newer arrives through the queue, deduped by
      // last_version.
      send_initial = false;
    } else {
      // Fallback for gaps older than retention: replay the missed edit
      // scripts from the KB's durable edit log.
      auto storage = engine->storage();
      bool complete = false;
      const auto missed =
          storage != nullptr
              ? storage->EditsSince(resume_after, &complete)
              : std::vector<std::pair<uint64_t, std::string>>();
      if (complete) {
        for (const auto& [version, script] : missed) {
          // An in-flight write may already sit in the log unpublished; its
          // publish will arrive through the queue, so replay stops at the
          // snapshot we are about to send.
          if (version > initial->version) break;
          Json data = Json::Object();
          data.Set("kb", Json::Str(kb));
          data.Set("version", Json::Int(static_cast<int64_t>(version)));
          data.Set("script", Json::Str(script));
          alive = stream->Write(SseEvent("edit", data, version, true));
          if (!alive) break;
          ++sent;
        }
      }
      // Whether or not edits replayed, the snapshot below reconciles
      // everything scripts cannot carry (rule changes, solves, graph
      // loads) — and is the whole resync when the tail was incomplete.
    }
  }
  if (alive && send_initial) {
    alive = stream->Write(SseEvent(
        "snapshot", api::KbInfoJson(kb, *initial), initial->version, true));
    if (alive) ++sent;
  }

  int idle_ticks = 0;
  while (alive && !stream->stopping() &&
         (max_events == 0 || sent < max_events)) {
    std::vector<std::shared_ptr<const api::Snapshot>> batch;
    bool closed;
    {
      util::MutexLock lock(sub->mutex);
      // No predicate: a spurious or heartbeat wake just produces an empty
      // batch and the outer polling loop re-checks everything. (Clang's
      // thread-safety analysis cannot see capabilities inside a predicate
      // lambda, so the explicit form keeps this path checkable.)
      if (sub->queue.empty() && !sub->closed) {
        sub->cv.WaitFor(sub->mutex, std::chrono::milliseconds(250));
      }
      batch.assign(sub->queue.begin(), sub->queue.end());
      sub->queue.clear();
      closed = sub->closed;
    }
    if (batch.empty() && !closed) {
      // Idle: heartbeat comment roughly every 5 s so a vanished client is
      // detected (and the worker freed) without any publish happening.
      if (++idle_ticks >= 20) {
        idle_ticks = 0;
        alive = stream->Write(": keep-alive\n\n");
      }
      continue;
    }
    idle_ticks = 0;
    for (const auto& snap : batch) {
      if (snap->version <= last_version) continue;  // initial-event overlap
      last_version = snap->version;
      if (!FilterMatches(predicates, *snap)) {
        // Comment, not event: clients' Last-Event-ID is unchanged, but the
        // connection shows liveness and tests can observe the suppression.
        alive = stream->Write(StringPrintf(
            ": skip %llu\n\n", (unsigned long long)snap->version));
        if (!alive) break;
        continue;
      }
      alive = stream->Write(SseEvent("snapshot", api::KbInfoJson(kb, *snap),
                                     snap->version, true));
      if (!alive) break;
      ++sent;
      if (max_events != 0 && sent >= max_events) break;
    }
    if (closed && alive) {
      Json data = Json::Object();
      data.Set("kb", Json::Str(kb));
      data.Set("reason", Json::Str("deleted"));
      stream->Write(SseEvent("close", data, 0, false));
      break;
    }
  }
  engine->RemovePublishListener(listener);
  subscribers->Add(-1);
}

HttpResponse HandleSubscribe(const std::shared_ptr<api::Engine>& engine,
                             const std::string& kb,
                             const HttpRequest& request) {
  int64_t max_events = 0;
  const std::string max_param = request.QueryParam("max_events", "");
  if (!max_param.empty() &&
      (!ParseInt64(max_param, &max_events) || max_events < 0)) {
    return ErrorResponse(Status::InvalidArgument(
        StringPrintf("bad max_events '%s'", max_param.c_str())));
  }
  // Reconnecting EventSource clients send the id of the last event they
  // saw; curl and tests can use the query param instead.
  uint64_t resume_after = kNoResume;
  std::string last_id = request.HeaderValue("Last-Event-ID", "");
  if (last_id.empty()) last_id = request.QueryParam("last_event_id", "");
  if (!last_id.empty()) {
    int64_t parsed = 0;
    if (!ParseInt64(last_id, &parsed) || parsed < 0) {
      return ErrorResponse(Status::InvalidArgument(
          StringPrintf("bad Last-Event-ID '%s'", last_id.c_str())));
    }
    resume_after = static_cast<uint64_t>(parsed);
  }
  // ?predicates=p1,p2 — narrow the stream to publishes touching one of
  // these predicates. Sorted + deduped here so the per-event match is a
  // linear merge.
  std::vector<std::string> predicates;
  const std::string predicates_param = request.QueryParam("predicates", "");
  if (!predicates_param.empty()) {
    for (const std::string& part : Split(predicates_param, ',')) {
      std::string name(Trim(part));
      if (!name.empty()) predicates.push_back(std::move(name));
    }
    std::sort(predicates.begin(), predicates.end());
    predicates.erase(std::unique(predicates.begin(), predicates.end()),
                     predicates.end());
    if (predicates.empty()) {
      return ErrorResponse(Status::InvalidArgument(
          "bad predicates filter: no non-empty names"));
    }
  }
  HttpResponse out;
  out.status = 200;
  out.content_type = "text/event-stream";
  out.headers.emplace_back("Cache-Control", "no-cache");
  out.stream = [engine, kb,
                max = static_cast<uint64_t>(max_events), resume_after,
                predicates = std::move(predicates)](ResponseStream* stream) {
    StreamSubscription(engine, kb, max, resume_after, predicates, stream);
  };
  return out;
}

// ----------------------------------------------------------- lifecycle

HttpResponse HandleKbCollection(api::EngineRegistry* registry,
                                const HttpRequest& request) {
  if (request.method == "GET") {
    return JsonResponse(200, api::KbListJson(registry->List()));
  }
  auto body = ParseBody(request);
  if (!body.ok()) return ErrorResponse(body.status());
  auto req = api::KbCreateRequest::FromJson(*body);
  if (!req.ok()) return ErrorResponse(req.status());
  auto created = registry->Create(req->name);
  if (!created.ok()) return ErrorResponse(created.status());
  return JsonResponse(201,
                      api::KbInfoJson(req->name, *(*created)->snapshot()));
}

HttpResponse HandleKbItem(api::EngineRegistry* registry,
                          const std::string& name,
                          const HttpRequest& request) {
  if (request.method == "GET") {
    auto engine = registry->Get(name);
    if (!engine.ok()) return ErrorResponse(engine.status());
    return JsonResponse(200, api::KbInfoJson(name, *(*engine)->snapshot()));
  }
  Status deleted = registry->Delete(name);
  if (!deleted.ok()) return ErrorResponse(deleted);
  Json out = Json::Object();
  out.Set("kb", Json::Str(name));
  out.Set("deleted", Json::Bool(true));
  return JsonResponse(200, out);
}

// ------------------------------------------------------- observability

/// GET /metrics — Prometheus text exposition of the process registry.
/// Auth-exempt: scrapers hold no tokens, and the surface is read-only
/// operational state (no KB contents beyond aggregate counts).
HttpResponse HandleMetrics() {
  HttpResponse out;
  out.status = 200;
  out.content_type = "text/plain; version=0.0.4";
  out.body = obs::Registry::Default()->RenderPrometheusText();
  return out;
}

const char* StatusClass(int status) {
  if (status >= 500) return "5xx";
  if (status >= 400) return "4xx";
  if (status >= 300) return "3xx";
  return "2xx";
}

// ------------------------------------------------------------- routing

/// One per-KB endpoint, `/v1/kb/{name}/<name>`. The router answers 405,
/// with `allow` as the `Allow` header, before it calls `handle`; request
/// metrics carry `name` as their `endpoint` label.
struct Endpoint {
  const char* name;
  const char* allow;
  HttpResponse (*handle)(const std::shared_ptr<api::Engine>& engine,
                         const std::string& kb, const HttpRequest& request);
};

constexpr Endpoint kEndpoints[] = {
    {"graph", "GET, POST", HandleGraph},
    {"rules", "GET, POST, DELETE", HandleRules},
    {"solve", "POST", HandleSolve},
    {"edits", "POST", HandleEdits},
    {"conflicts", "GET", HandleConflicts},
    {"stats", "GET", HandleStats},
    {"complete", "GET", HandleComplete},
    {"suggest", "GET, POST", HandleSuggest},
    {"mine", "POST", HandleMine},
    {"subscribe", "GET", HandleSubscribe},
};

/// Where a request path leads, parsed once per request: dispatch, auth
/// scoping and the metrics label all read it.
struct Route {
  enum class Kind { kUnrouted, kMetrics, kCollection, kKbItem, kKbEndpoint };
  Kind kind = Kind::kUnrouted;
  /// `{name}` of `/v1/kb/{name}` and `/v1/kb/{name}/<endpoint>`.
  std::string kb;
  /// The table row of a KB endpoint; null when the path names none.
  const Endpoint* endpoint = nullptr;
  /// The methods the path answers, as the 405 `Allow` header lists them;
  /// null when nothing is routed there.
  const char* allow = nullptr;
};

Route ParseRoute(const std::string& path) {
  Route route;
  if (path == "/metrics") {
    route.kind = Route::Kind::kMetrics;
    route.allow = "GET";
    return route;
  }
  if (path == "/v1/kb") {
    route.kind = Route::Kind::kCollection;
    route.allow = "GET, POST";
    return route;
  }
  const std::string_view kb_prefix = "/v1/kb/";
  if (path.compare(0, kb_prefix.size(), kb_prefix) != 0) return route;
  const std::string_view rest =
      std::string_view(path).substr(kb_prefix.size());
  const size_t slash = rest.find('/');
  route.kb = std::string(rest.substr(0, slash));
  if (slash == std::string_view::npos) {
    route.kind = Route::Kind::kKbItem;
    route.allow = "GET, DELETE";
    return route;
  }
  route.kind = Route::Kind::kKbEndpoint;
  const std::string_view name = rest.substr(slash + 1);
  for (const Endpoint& row : kEndpoints) {
    if (name == row.name) {
      route.endpoint = &row;
      route.allow = row.allow;
      break;
    }
  }
  return route;
}

/// Does `allow`, a comma-separated method list, name `method`?
bool Allows(std::string_view allow, std::string_view method) {
  while (!allow.empty()) {
    const size_t comma = allow.find(',');
    if (Trim(allow.substr(0, comma)) == method) return true;
    if (comma == std::string_view::npos) break;
    allow.remove_prefix(comma + 1);
  }
  return false;
}

/// The auth scope of a route. Admin scope covers tenant lifecycle (the
/// /v1/kb collection, DELETE of a KB) and every unrouted path — so a
/// per-KB token probing outside its KB sees 403, never 404.
AuthScope ScopeFor(const Route& route, const std::string& method) {
  AuthScope scope;
  switch (route.kind) {
    case Route::Kind::kKbItem:
      // Reading the digest is KB-scoped, deleting is admin.
      scope.kb = route.kb;
      scope.admin = method != "GET";
      break;
    case Route::Kind::kKbEndpoint:
      scope.kb = route.kb;
      break;
    default:
      scope.admin = true;
  }
  return scope;
}

/// Bounded-cardinality endpoint label for request metrics: a table row's
/// name, "kb" for tenant lifecycle, "metrics", or "other" — never raw
/// request paths (KB names and typo'd paths must not mint new series).
const char* EndpointLabel(const Route& route) {
  switch (route.kind) {
    case Route::Kind::kMetrics:
      return "metrics";
    case Route::Kind::kCollection:
    case Route::Kind::kKbItem:
      return "kb";
    case Route::Kind::kKbEndpoint:
      if (route.endpoint != nullptr) return route.endpoint->name;
      break;
    case Route::Kind::kUnrouted:
      break;
  }
  return "other";
}

HttpResponse Dispatch(api::EngineRegistry* registry,
                      const RouterOptions& options, const Route& route,
                      const HttpRequest& request) {
  // Metrics are exempt from auth: a scraper must never be locked out by a
  // token rotation.
  if (route.kind != Route::Kind::kMetrics) {
    Status auth = CheckScopedAuth(options.auth_token, options.kb_tokens,
                                  ScopeFor(route, request.method), request);
    if (!auth.ok()) return ErrorResponse(auth);
  }
  const bool per_kb = route.kind == Route::Kind::kKbItem ||
                      route.kind == Route::Kind::kKbEndpoint;
  if (per_kb && route.kb.empty()) {
    return ErrorResponse(Status::NotFound("missing kb name in path"));
  }
  // The engine is held for the whole request (and by the stream for
  // subscriptions), so a concurrent DELETE never tears a response.
  std::shared_ptr<api::Engine> engine;
  if (route.kind == Route::Kind::kKbEndpoint) {
    auto found = registry->Get(route.kb);
    if (!found.ok()) return ErrorResponse(found.status());
    engine = std::move(*found);
  }
  if (route.allow == nullptr) {
    return ErrorResponse(Status::NotFound(
        StringPrintf("no such endpoint: %s %s", request.method.c_str(),
                     request.path.c_str())));
  }
  if (!Allows(route.allow, request.method)) {
    return MethodNotAllowed(request.method, route.allow);
  }
  if (route.kind == Route::Kind::kCollection) {
    return HandleKbCollection(registry, request);
  }
  if (route.kind == Route::Kind::kKbItem) {
    return HandleKbItem(registry, route.kb, request);
  }
  if (route.kind == Route::Kind::kKbEndpoint) {
    return route.endpoint->handle(engine, route.kb, request);
  }
  return HandleMetrics();  // the one other route that answers a method
}

}  // namespace

std::vector<std::pair<std::string, std::string>> KbEndpointMethods() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Endpoint& row : kEndpoints) out.emplace_back(row.name, row.allow);
  return out;
}

HttpHandler MakeApiHandler(api::EngineRegistry* registry,
                           RouterOptions options) {
  obs::Registry* metrics = obs::Registry::Default();
  auto in_flight = metrics->GetGauge("tecore_http_requests_in_flight");
  return [registry, options = std::move(options), metrics,
          in_flight](const HttpRequest& request) {
    in_flight->Add(1);
    std::string request_id = request.HeaderValue("X-Request-Id", "");
    if (request_id.empty()) request_id = obs::GenerateRequestId();

    Timer timer;
    const Route route = ParseRoute(request.path);
    HttpResponse response = Dispatch(registry, options, route, request);
    const uint64_t micros = static_cast<uint64_t>(timer.ElapsedMicros());

    // For SSE subscriptions this measures route setup, not the stream's
    // lifetime — live streams show up in tecore_kb_sse_subscribers.
    const char* endpoint = EndpointLabel(route);
    metrics
        ->GetHistogram("tecore_http_request_duration_micros",
                       {{"endpoint", endpoint}},
                       obs::Histogram::DefaultLatencyBounds())
        ->Observe(micros);
    metrics
        ->GetCounter("tecore_http_requests_total",
                     {{"endpoint", endpoint},
                      {"status", StatusClass(response.status)}})
        ->Inc();
    response.headers.emplace_back("X-Request-Id", request_id);
    if (options.access_log != nullptr) {
      obs::AccessLog::Entry entry;
      entry.method = request.method;
      entry.path = request.path;
      entry.status = response.status;
      entry.response_bytes = response.body.size();
      entry.duration_micros = micros;
      entry.request_id = request_id;
      options.access_log->Write(entry);
    }
    in_flight->Add(-1);
    return response;
  };
}

}  // namespace server
}  // namespace tecore
