#ifndef TECORE_SERVER_AUTH_H_
#define TECORE_SERVER_AUTH_H_

#include <map>
#include <string>
#include <string_view>

#include "server/http_server.h"
#include "util/status.h"

namespace tecore {
namespace server {

/// \brief Bearer-token authentication for the `/v1` API.
///
/// One static token for the whole service (`--auth-token-file`); an empty
/// token means auth is disabled. This is deliberately not a user model —
/// it is the "keep the port honest" tier below TLS termination (which
/// stays a deployment concern; see ROADMAP).

/// \brief Read the token from `path`: the file's contents with
/// surrounding whitespace trimmed (so a trailing newline from `echo` is
/// fine). IoError when unreadable, InvalidArgument when empty after
/// trimming.
Result<std::string> LoadAuthTokenFile(const std::string& path);

/// \brief Timing-safe equality: examines every byte of both inputs so the
/// comparison time leaks neither the mismatch position nor (beyond
/// equality itself) the token length.
bool ConstantTimeEquals(std::string_view a, std::string_view b);

/// \brief Per-KB tokens (`--kb-tokens-file`): KB name → bearer token.
/// std::map so iteration (startup log, tests) is deterministic.
using KbTokenMap = std::map<std::string, std::string>;

/// \brief Parse a KB-tokens file: one `<kb-name> <token>` pair per line,
/// whitespace-separated; blank lines and `#` comments ignored.
/// InvalidArgument on malformed lines or duplicate KB names.
Result<KbTokenMap> LoadKbTokensFile(const std::string& path);

/// \brief What a request is allowed to touch, derived from its path.
/// `admin` covers tenant lifecycle (list/create/delete) and unrouted
/// paths; otherwise `kb` names the one tenant the request reads or
/// writes.
struct AuthScope {
  bool admin = false;
  std::string kb;
};

/// \brief Two-tier authentication. The service token (when set) grants
/// everything; a per-KB token grants exactly its own KB's endpoints.
/// Rules:
///  - both `service_token` and `kb_tokens` empty → auth disabled, OK;
///  - missing/malformed credentials → Unauthenticated (401);
///  - the service token authorizes any scope;
///  - KB `k`'s token authorizes scope {kb: k} only — admin scopes and
///    other KBs (cross-KB access) are PermissionDenied (403);
///  - anything else → PermissionDenied (403).
/// All token comparisons are constant-time.
Status CheckScopedAuth(std::string_view service_token,
                       const KbTokenMap& kb_tokens, const AuthScope& scope,
                       const HttpRequest& request);

}  // namespace server
}  // namespace tecore

#endif  // TECORE_SERVER_AUTH_H_
