#include "server/auth.h"

#include "util/file.h"
#include "util/string_util.h"

namespace tecore {
namespace server {

Result<std::string> LoadAuthTokenFile(const std::string& path) {
  TECORE_ASSIGN_OR_RETURN(contents, util::ReadFileToString(path));
  std::string token(Trim(contents));
  if (token.empty()) {
    return Status::InvalidArgument(
        StringPrintf("auth token file '%s' is empty", path.c_str()));
  }
  return token;
}

bool ConstantTimeEquals(std::string_view a, std::string_view b) {
  // Fold every byte of both strings into the accumulator — no early exit
  // on first mismatch, and the longer input is walked in full even when
  // lengths differ.
  volatile unsigned char acc =
      static_cast<unsigned char>((a.size() == b.size()) ? 0 : 1);
  const size_t n = std::max(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const unsigned char ca = i < a.size() ? static_cast<unsigned char>(a[i])
                                          : static_cast<unsigned char>(0);
    const unsigned char cb = i < b.size() ? static_cast<unsigned char>(b[i])
                                          : static_cast<unsigned char>(0);
    acc = static_cast<unsigned char>(acc | (ca ^ cb));
  }
  return acc == 0;
}

namespace {

/// Extract the bearer token from the Authorization header into
/// `presented`. Unauthenticated (401) when the header is missing or not
/// a Bearer scheme — those are "no credentials", distinct from the 403
/// "wrong credentials" the callers decide on.
Status ExtractBearerToken(const HttpRequest& request,
                          std::string* presented) {
  const std::string header = request.HeaderValue("authorization", "");
  if (header.empty()) {
    return Status::Unauthenticated(
        "missing Authorization header (expected 'Bearer <token>')");
  }
  std::string_view value = Trim(header);
  const size_t space = value.find(' ');
  // Scheme match is case-insensitive per RFC 9110 §11.1.
  if (space == std::string_view::npos ||
      !AsciiIEquals(value.substr(0, space), "bearer")) {
    return Status::Unauthenticated(
        "unsupported Authorization scheme (expected 'Bearer <token>')");
  }
  *presented = std::string(Trim(value.substr(space + 1)));
  return Status::OK();
}

}  // namespace

Result<KbTokenMap> LoadKbTokensFile(const std::string& path) {
  TECORE_ASSIGN_OR_RETURN(contents, util::ReadFileToString(path));
  KbTokenMap tokens;
  int line_number = 0;
  for (const std::string& raw_line : Split(contents, '\n')) {
    ++line_number;
    std::string_view line = Trim(raw_line);
    if (line.empty() || line.front() == '#') continue;
    const std::vector<std::string> parts = SplitWhitespace(line);
    if (parts.size() != 2) {
      return Status::InvalidArgument(StringPrintf(
          "%s:%d: expected '<kb-name> <token>', got '%.*s'", path.c_str(),
          line_number, static_cast<int>(line.size()), line.data()));
    }
    if (!tokens.emplace(parts[0], parts[1]).second) {
      return Status::InvalidArgument(
          StringPrintf("%s:%d: duplicate kb '%s'", path.c_str(), line_number,
                       parts[0].c_str()));
    }
  }
  if (tokens.empty()) {
    return Status::InvalidArgument(
        StringPrintf("kb tokens file '%s' holds no entries", path.c_str()));
  }
  return tokens;
}

Status CheckScopedAuth(std::string_view service_token,
                       const KbTokenMap& kb_tokens, const AuthScope& scope,
                       const HttpRequest& request) {
  if (service_token.empty() && kb_tokens.empty()) {
    return Status::OK();  // auth disabled
  }
  std::string presented;
  TECORE_RETURN_NOT_OK(ExtractBearerToken(request, &presented));
  // Evaluate both tiers unconditionally so the comparison count does not
  // depend on which (if either) matched.
  const bool is_service = !service_token.empty() &&
                          ConstantTimeEquals(presented, service_token);
  bool is_kb = false;
  if (!scope.admin && !scope.kb.empty()) {
    const auto it = kb_tokens.find(scope.kb);
    if (it != kb_tokens.end()) {
      is_kb = ConstantTimeEquals(presented, it->second);
    }
  }
  if (is_service || is_kb) return Status::OK();
  if (scope.admin) {
    return Status::PermissionDenied(
        "admin scope requires the service token");
  }
  return Status::PermissionDenied("invalid token");
}

}  // namespace server
}  // namespace tecore
