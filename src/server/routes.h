#ifndef TECORE_SERVER_ROUTES_H_
#define TECORE_SERVER_ROUTES_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.h"
#include "obs/access_log.h"
#include "server/auth.h"
#include "server/http_server.h"

namespace tecore {
namespace server {

/// \brief Router configuration.
struct RouterOptions {
  /// Service bearer token (`Authorization: Bearer <token>`); empty plus
  /// an empty `kb_tokens` disables auth. Missing/malformed credentials
  /// are 401, a wrong token is 403 (constant-time compare; see auth.h).
  /// When per-KB tokens are configured, the service token is the admin
  /// tier: it alone authorizes tenant lifecycle (list/create/delete).
  std::string auth_token;
  /// Per-KB tokens (`--kb-tokens-file`): KB name → token. A KB's token
  /// authorizes exactly that KB's endpoints; presenting it against
  /// another KB or an admin endpoint is 403 (see CheckScopedAuth).
  KbTokenMap kb_tokens;
  /// When set, every completed request is logged as one structured line
  /// (see obs/access_log.h). Null disables access logging.
  std::shared_ptr<obs::AccessLog> access_log;
};

/// \brief Handler closure for HttpServer: dispatch each request against
/// the registry. `registry` must outlive the server.
///
/// Each request path is parsed once into a route — the `/v1/kb`
/// collection, a KB item `/v1/kb/{name}`, a per-KB endpoint
/// `/v1/kb/{name}/<endpoint>`, `GET /metrics`, or unrouted (404). The
/// per-KB endpoints are the rows of one table, `kEndpoints` in routes.cc
/// (see KbEndpointMethods; docs/api.md documents each). Dispatch, auth
/// scoping, the metrics `endpoint` label and the 405 `Allow` header all
/// read that table.
///
/// Tenant lifecycle:
///   GET    /v1/kb            — list KBs (name + snapshot digest each)
///   POST   /v1/kb            — create a KB ({"name": n}; 201, 409 dup)
///   GET    /v1/kb/{name}     — one KB's digest
///   DELETE /v1/kb/{name}     — delete (in-flight reads stay consistent,
///                              subscribers get a `close` event)
///
/// `GET /metrics` serves the Prometheus text exposition of the process
/// metrics registry. It is auth-exempt (scrapers hold no tokens) and
/// read-only; see docs/observability.md.
///
/// Reads are served from the tenant engine's current snapshot and never
/// block writes; every response carries the snapshot version it came
/// from. Errors are the uniform envelope
/// `{"error": {"code": …, "message": …}}`.
///
/// Every request is instrumented: request counters and latency
/// histograms labeled by endpoint, an in-flight gauge, an `X-Request-Id`
/// response header (echoed from the request or generated), and the
/// optional access log.
HttpHandler MakeApiHandler(api::EngineRegistry* registry,
                           RouterOptions options = {});

/// \brief The per-KB endpoint table as clients see it: each endpoint's
/// name (the path segment after `/v1/kb/{name}/`) and the methods it
/// answers, listed as in the `Allow` header of its 405. Table order.
std::vector<std::pair<std::string, std::string>> KbEndpointMethods();

}  // namespace server
}  // namespace tecore

#endif  // TECORE_SERVER_ROUTES_H_
