#ifndef TECORE_API_TYPES_H_
#define TECORE_API_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/registry.h"
#include "core/conflict.h"
#include "core/resolver.h"
#include "mine/miner.h"
#include "util/json.h"
#include "util/status.h"

namespace tecore {
namespace api {

/// Request/response DTOs of the `/v1` wire protocol, mirroring the paper's
/// four demo-UI steps: (1) select a UTKG, (2) edit rules/constraints with
/// predicate auto-completion, (3) compute the most probable conflict-free
/// KG, (4) browse results. Every response carries the snapshot `version`
/// it was served from plus the library version, so clients can correlate
/// reads under concurrent writes.
///
/// Decoding is lenient where the paper's UI is (absent fields take
/// defaults) and strict where silence would mislead (unknown solver names
/// are an error, not a fallback).

// ------------------------------------------------------------- requests

/// \brief Body of `POST /v1/solve` (all fields optional).
struct SolveRequest {
  core::ResolveOptions options;
  /// Cap on the facts listed per array in the response.
  size_t max_facts = 100;

  static Result<SolveRequest> FromJson(const util::Json& json);
};

/// \brief Body of `POST /v1/edits`: an edit script plus solve options.
struct EditsRequest {
  std::string script;
  SolveRequest solve;

  static Result<EditsRequest> FromJson(const util::Json& json);
};

/// \brief Body of `POST /v1/graph`: inline ".tq" text or a server-side
/// path (exactly one must be set).
struct GraphRequest {
  std::string text;
  std::string path;

  static Result<GraphRequest> FromJson(const util::Json& json);
};

/// \brief Body of `POST /v1/rules`: rule-language text to append.
struct RulesRequest {
  std::string text;

  static Result<RulesRequest> FromJson(const util::Json& json);
};

/// \brief Body of `POST /v1/kb/{name}/mine` and of `POST /v1/suggest`
/// (all fields optional; a negative count is an error).
struct MineRequest {
  mine::MiningOptions options;
  /// Install the mined rules through the normal AddRules write path
  /// (WAL-logged, crash-safe) after mining. Mine only: suggest never
  /// adopts.
  bool adopt = false;

  static Result<MineRequest> FromJson(const util::Json& json);
};

/// \brief Body of `POST /v1/kb`: `{"name": "<kb>"}`.
struct KbCreateRequest {
  std::string name;

  static Result<KbCreateRequest> FromJson(const util::Json& json);
};

// ------------------------------------------------------------ responses

/// \brief `{"version":v,"tecore":"x.y.z"}` — the envelope every response
/// starts from.
util::Json ResponseEnvelope(uint64_t version);

/// \brief `GET /v1/graph` — shape of the loaded KB.
util::Json GraphInfoJson(const Snapshot& snapshot);

/// \brief `GET /v1/stats` — the Fig. 8 statistics panel as data.
util::Json StatsJson(const Snapshot& snapshot);

/// \brief `GET /v1/rules` — the active rule set.
util::Json RulesJson(const Snapshot& snapshot);

/// \brief `GET /v1/complete?prefix=...` — predicate auto-completion.
util::Json CompleteJson(const Snapshot& snapshot, const std::string& prefix);

/// \brief `GET|POST /v1/suggest` — the mined rules as suggestions: per
/// rule its text, `support` (instances examined), `violation_rate` and a
/// one-line `rationale`, in the miner's ranking order.
util::Json SuggestJson(const Snapshot& snapshot,
                       const mine::MiningReport& report);

/// \brief `POST /v1/kb/{name}/mine` — the mining report: ranked rules
/// with evidence, exact work counters, and the canonical `.tcr` document
/// (`tcr`) ready to save or POST back to `/rules`. `version` is the
/// snapshot the pass ran on; the handler adds `adopted`/`adopted_version`
/// when the rules were installed.
util::Json MineJson(uint64_t version, const mine::MiningReport& report,
                    const mine::MiningOptions& options);

/// \brief `GET /v1/conflicts?limit=N` — detection report; at most `limit`
/// conflicts are listed (counts always cover the full report).
util::Json ConflictsJson(const Snapshot& snapshot,
                         const core::ConflictReport& report, size_t limit);

/// \brief `POST /v1/solve` — the resolution result. `graph` must be the
/// snapshot graph the result was computed against (fact and term ids
/// align, so removed, kept and derived facts all render through it);
/// `version` is the publish version of that snapshot.
util::Json SolveJson(uint64_t version, const rdf::TemporalGraph& graph,
                     const core::ResolveResult& result, size_t max_facts,
                     bool cached);

/// \brief `POST /v1/edits` — SolveJson plus applied-edit counts.
util::Json EditsJson(uint64_t version, const rdf::TemporalGraph& graph,
                     const core::EditApplication& applied,
                     const core::ResolveResult& result, size_t max_facts);

/// \brief One KB's digest: the `GET /v1/graph` shape plus `"kb"` (the
/// tenant name). Used by the lifecycle endpoints and as the SSE
/// `snapshot` event payload.
util::Json KbInfoJson(const std::string& name, const Snapshot& snapshot);

/// \brief `GET /v1/kb` — every KB's digest, sorted by name.
util::Json KbListJson(const std::vector<EngineRegistry::KbInfo>& kbs);

/// \brief The uniform error envelope every endpoint returns on failure:
/// `{"error": {"code": "<StatusCodeName>", "message": "<text>"}}`.
util::Json ErrorJson(const Status& status);

/// \brief Map a Status to the HTTP status code the server responds with.
int HttpStatusFor(const Status& status);

}  // namespace api
}  // namespace tecore

#endif  // TECORE_API_TYPES_H_
