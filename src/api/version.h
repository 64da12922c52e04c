#ifndef TECORE_API_VERSION_H_
#define TECORE_API_VERSION_H_

namespace tecore {
namespace api {

/// \brief Library/binary release version (SemVer), reported by
/// `tecore-cli --version` and every server response envelope.
inline constexpr const char kTecoreVersion[] = "1.0.0";

/// \brief Wire-protocol major version — the `/v1` in endpoint paths.
/// Bumped only on breaking changes to the request/response schemas.
/// Known exception: 0.5.0 changed the error envelope in place (from
/// `{"error": msg, "code": name}` to `{"error": {"code", "message"}}`)
/// as part of the tenancy redesign — success schemas were untouched, so
/// `/v1` was retained; clients that parse error bodies must follow
/// docs/api.md §Errors. 1.0.0 removed the single-KB `/v1/<endpoint>`
/// paths but changed no `/v1/kb/…` schema, so `/v1` stays.
inline constexpr int kApiMajorVersion = 1;

}  // namespace api
}  // namespace tecore

#endif  // TECORE_API_VERSION_H_
