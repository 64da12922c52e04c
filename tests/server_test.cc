// tecore-server integration: real sockets against an in-process
// HttpServer on an ephemeral port — the full paper workflow (load graph →
// add rules → solve → edit → browse) over HTTP, the multi-tenant layer
// (KB lifecycle, isolation, the route table, bearer-token auth, SSE
// subscriptions, chunked request bodies) and protocol edges
// (404/405/400/401/403/501 with the uniform error envelope, conflicting
// message framing, keep-alive, concurrent clients during writes).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.h"
#include "datagen/generators.h"
#include "rdf/io.h"
#include "rules/library.h"
#include "server/http_server.h"
#include "server/routes.h"
#include "util/json.h"
#include "util/string_util.h"

namespace tecore {
namespace server {
namespace {

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Blocking one-shot HTTP client: send `request` bytes, read to EOF.
std::string RawRequest(int port, const std::string& request) {
  const int fd = Connect(port);
  if (fd < 0) return "";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Http(int port, const std::string& method, const std::string& path,
                 const std::string& body = "",
                 const std::string& extra_headers = "") {
  return RawRequest(
      port, StringPrintf("%s %s HTTP/1.1\r\nHost: t\r\n%sContent-Length: "
                         "%zu\r\nConnection: close\r\n\r\n%s",
                         method.c_str(), path.c_str(), extra_headers.c_str(),
                         body.size(), body.c_str()));
}

int StatusOf(const std::string& response) {
  int status = 0;
  std::sscanf(response.c_str(), "HTTP/1.1 %d", &status);
  return status;
}

bool HasHeader(const std::string& response, const std::string& line) {
  const size_t split = response.find("\r\n\r\n");
  return response.substr(0, split).find(line) != std::string::npos;
}

util::Json BodyOf(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  EXPECT_NE(split, std::string::npos) << response;
  auto parsed = util::Json::Parse(
      Trim(std::string_view(response).substr(split + 4)));
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << response;
  return parsed.ok() ? *parsed : util::Json::Null();
}

/// The uniform failure shape: {"error": {"code", "message"}}.
std::string ErrorCodeOf(const util::Json& body) {
  const util::Json* error = body.Find("error");
  if (error == nullptr || !error->is_object()) return "<no error object>";
  if (error->Find("message") == nullptr) return "<no message>";
  return error->GetString("code", "<no code>");
}

/// Raw (non-JSON) response body — used for /metrics exposition text.
std::string TextBodyOf(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string()
                                    : response.substr(split + 4);
}

/// Value of one exposition line, e.g.
/// MetricValue(text, "tecore_kb_facts{kb=\"default\"}"). -1 if absent.
/// The default registry is process-global, so tests assert deltas of
/// cumulative series between two scrapes, not absolute values.
long long MetricValue(const std::string& exposition,
                      const std::string& series) {
  const std::string needle = series + " ";
  size_t pos = 0;
  while ((pos = exposition.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || exposition[pos - 1] == '\n') {
      return std::stoll(exposition.substr(pos + needle.size()));
    }
    pos += 1;
  }
  return -1;
}

/// The per-KB endpoints the single-KB protocol once also served as
/// `/v1/<endpoint>` aliases; since 1.0 those paths route nowhere.
const std::vector<std::string> kFormerAliases = {
    "graph", "rules",    "solve",   "edits", "conflicts",
    "stats", "complete", "suggest", "mine"};

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The fixture's own KB: a server holds no KB it was not given.
    auto created = registry_.Create("default");
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    engine_ = *created;
    HttpServer::Options options;
    options.port = 0;  // ephemeral
    options.pool = registry_.pool();
    server_ =
        std::make_unique<HttpServer>(options, MakeApiHandler(&registry_));
    auto port = server_->Start();
    ASSERT_TRUE(port.ok()) << port.status().ToString();
    port_ = *port;
  }

  void TearDown() override { server_->Stop(); }

  api::EngineRegistry registry_;
  std::shared_ptr<api::Engine> engine_;  // the fixture's "default" KB
  std::unique_ptr<HttpServer> server_;
  int port_ = 0;
};

TEST_F(ServerTest, FullPaperWorkflowOverHttp) {
  // 1. select a UTKG.
  util::Json graph = BodyOf(Http(
      port_, "POST", "/v1/kb/default/graph",
      "{\"text\":\"CR coach Chelsea [2000,2004] 0.9 .\\n"
      "CR coach Leicester [2015,2017] 0.7 .\\n"
      "CR playsFor Palermo [1984,1986] 0.5 .\\n"
      "CR birthDate 1951 [1951,2017] 1.0 .\\n"
      "CR coach Napoli [2001,2003] 0.6 .\\n\"}"));
  EXPECT_EQ(graph.GetInt("num_facts", -1), 5);
  EXPECT_EQ(graph.GetInt("version", -1), 1);

  // 2. rules, with predicate auto-completion.
  util::Json complete =
      BodyOf(Http(port_, "GET", "/v1/kb/default/complete?prefix=coa"));
  ASSERT_EQ(complete.Find("completions")->items().size(), 1u);
  EXPECT_EQ(complete.Find("completions")->items()[0].string_value(),
            "coach");
  util::Json rules = BodyOf(Http(
      port_, "POST", "/v1/kb/default/rules",
      "{\"text\":\"c2: quad(x, coach, y, t) & quad(x, coach, z, t') & "
      "y != z -> disjoint(t, t') .\"}"));
  EXPECT_EQ(rules.GetInt("added", -1), 1);
  EXPECT_EQ(rules.GetInt("num_rules", -1), 1);

  // 3. compute: conflicts, then the most probable conflict-free KG.
  util::Json conflicts =
      BodyOf(Http(port_, "GET", "/v1/kb/default/conflicts"));
  EXPECT_EQ(conflicts.GetInt("num_conflicts", -1), 1);
  util::Json solve = BodyOf(Http(port_, "POST", "/v1/kb/default/solve",
                                 "{\"solver\":\"mln\"}"));
  EXPECT_TRUE(solve.GetBool("feasible", false));
  EXPECT_EQ(solve.GetInt("removed", -1), 1);
  ASSERT_EQ(solve.Find("removed_facts")->items().size(), 1u);
  EXPECT_NE(solve.Find("removed_facts")->items()[0].string_value().find(
                "Napoli"),
            std::string::npos);

  // Edits: incremental re-solve over HTTP.
  util::Json edits = BodyOf(
      Http(port_, "POST", "/v1/kb/default/edits",
           "{\"script\":\"+ CR coach Bari [2006,2008] 0.5 .\\n\"}"));
  EXPECT_EQ(edits.GetInt("inserted", -1), 1);
  EXPECT_GT(edits.GetInt("version", -1), solve.GetInt("version", -1));
  EXPECT_TRUE(edits.GetBool("feasible", false));

  // 4. browse statistics and suggestions.
  util::Json stats = BodyOf(Http(port_, "GET", "/v1/kb/default/stats"));
  EXPECT_EQ(stats.Find("stats")->GetInt("num_facts", -1), 6);
  util::Json suggest =
      BodyOf(Http(port_, "GET", "/v1/kb/default/suggest"));
  EXPECT_NE(suggest.Find("suggestions"), nullptr);
  util::Json info = BodyOf(Http(port_, "GET", "/v1/kb/default/graph"));
  EXPECT_TRUE(info.GetBool("has_result", false));
  EXPECT_EQ(info.GetInt("num_facts", -1), 6);
}

TEST_F(ServerTest, FormerAliasPathsAreNotFound) {
  // The KB the aliases once served exists and holds a graph, so a 404
  // here is the missing route, not a missing KB.
  ASSERT_TRUE(engine_->LoadGraphText("a p b [1,2] 0.9 .").ok());
  for (const std::string& name : kFormerAliases) {
    for (const char* method : {"GET", "POST"}) {
      const std::string path = "/v1/" + name;
      const std::string response = Http(port_, method, path);
      EXPECT_EQ(StatusOf(response), 404) << method << " " << path;
      util::Json error = BodyOf(response);
      EXPECT_EQ(ErrorCodeOf(error), "NotFound") << response;
      EXPECT_EQ(error.Find("error")->GetString("message", ""),
                StringPrintf("no such endpoint: %s %s", method, path.c_str()));
      EXPECT_FALSE(HasHeader(response, "Deprecation:")) << response;
      EXPECT_FALSE(HasHeader(response, "Link:")) << response;
    }
  }
  // The tenant path still answers.
  EXPECT_EQ(StatusOf(Http(port_, "GET", "/v1/kb/default/graph")), 200);
}

TEST_F(ServerTest, KbLifecycleAndIsolation) {
  // Create two tenants.
  const std::string created = Http(port_, "POST", "/v1/kb",
                                   "{\"name\":\"alpha\"}");
  EXPECT_EQ(StatusOf(created), 201);
  EXPECT_EQ(BodyOf(created).GetString("kb", ""), "alpha");
  EXPECT_EQ(StatusOf(Http(port_, "POST", "/v1/kb", "{\"name\":\"beta\"}")),
            201);

  // Duplicate and malformed names are rejected.
  EXPECT_EQ(StatusOf(Http(port_, "POST", "/v1/kb", "{\"name\":\"alpha\"}")),
            409);
  EXPECT_EQ(StatusOf(Http(port_, "POST", "/v1/kb", "{\"name\":\"no/slash\"}")),
            400);
  EXPECT_EQ(StatusOf(Http(port_, "POST", "/v1/kb", "{}")), 400);

  // Independent contents and versions.
  EXPECT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/alpha/graph",
                          "{\"text\":\"a p b [1,2] 0.9 .\\n"
                          "a p c [3,4] 0.8 .\\n\"}")),
            200);
  EXPECT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/beta/graph",
                          "{\"text\":\"x q y [1,9] 0.5 .\\n\"}")),
            200);
  util::Json alpha = BodyOf(Http(port_, "GET", "/v1/kb/alpha/graph"));
  util::Json beta = BodyOf(Http(port_, "GET", "/v1/kb/beta/graph"));
  EXPECT_EQ(alpha.GetInt("num_facts", -1), 2);
  EXPECT_EQ(beta.GetInt("num_facts", -1), 1);
  EXPECT_EQ(alpha.GetInt("version", -1), 1);
  EXPECT_EQ(beta.GetInt("version", -1), 1);

  // Editing alpha must not bump beta's version.
  EXPECT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/alpha/edits",
                          "{\"script\":\"+ a p d [5,6] 0.7 .\\n\"}")),
            200);
  EXPECT_EQ(BodyOf(Http(port_, "GET", "/v1/kb/alpha/graph"))
                .GetInt("version", -1),
            2);
  EXPECT_EQ(BodyOf(Http(port_, "GET", "/v1/kb/beta/graph"))
                .GetInt("version", -1),
            1);

  // List shows all three, sorted (the fixture created "default").
  util::Json list = BodyOf(Http(port_, "GET", "/v1/kb"));
  ASSERT_EQ(list.GetInt("num_kbs", -1), 3);
  const auto& kbs = list.Find("kbs")->items();
  EXPECT_EQ(kbs[0].GetString("kb", ""), "alpha");
  EXPECT_EQ(kbs[1].GetString("kb", ""), "beta");
  EXPECT_EQ(kbs[2].GetString("kb", ""), "default");

  // Delete beta: gone afterwards, alpha untouched.
  EXPECT_EQ(StatusOf(Http(port_, "DELETE", "/v1/kb/beta")), 200);
  EXPECT_EQ(StatusOf(Http(port_, "GET", "/v1/kb/beta/graph")), 404);
  EXPECT_EQ(StatusOf(Http(port_, "DELETE", "/v1/kb/beta")), 404);
  EXPECT_EQ(StatusOf(Http(port_, "GET", "/v1/kb/alpha/graph")), 200);
  EXPECT_EQ(BodyOf(Http(port_, "GET", "/v1/kb")).GetInt("num_kbs", -1), 2);
}

TEST_F(ServerTest, ErrorEnvelopeIsUniform) {
  // 404 — unknown endpoint and unknown KB.
  util::Json nf = BodyOf(Http(port_, "GET", "/v1/nope"));
  EXPECT_EQ(ErrorCodeOf(nf), "NotFound");
  EXPECT_EQ(ErrorCodeOf(BodyOf(Http(port_, "GET", "/v1/kb/ghost/stats"))),
            "NotFound");
  // 405 — a method outside the route table's row, with the row's list as
  // `Allow`. Every row is checked, and the lists are pinned to the wire.
  const std::map<std::string, std::string> expected_allow = {
      {"graph", "GET, POST"},     {"rules", "GET, POST, DELETE"},
      {"solve", "POST"},          {"edits", "POST"},
      {"conflicts", "GET"},       {"stats", "GET"},
      {"complete", "GET"},        {"suggest", "GET, POST"},
      {"mine", "POST"},           {"subscribe", "GET"}};
  const std::vector<std::pair<std::string, std::string>> table =
      KbEndpointMethods();
  ASSERT_EQ(table.size(), expected_allow.size());
  std::vector<std::pair<std::string, std::string>> refused;
  for (const auto& [name, allow] : table) {
    ASSERT_EQ(expected_allow.count(name), 1u) << name;
    EXPECT_EQ(allow, expected_allow.at(name)) << name;
    refused.emplace_back("/v1/kb/default/" + name, allow);
  }
  // The lifecycle routes and /metrics answer 405 the same way.
  refused.emplace_back("/v1/kb", "GET, POST");
  refused.emplace_back("/v1/kb/default", "GET, DELETE");
  refused.emplace_back("/metrics", "GET");
  for (const auto& [path, allow] : refused) {
    for (const char* method : {"GET", "POST", "DELETE", "PUT", "PATCH"}) {
      const std::vector<std::string> listed = Split(allow, ',');
      if (std::find_if(listed.begin(), listed.end(),
                       [&](const std::string& m) {
                         return Trim(m) == method;
                       }) != listed.end()) {
        continue;
      }
      const std::string mna = Http(port_, method, path);
      EXPECT_EQ(StatusOf(mna), 405) << method << " " << path;
      EXPECT_EQ(ErrorCodeOf(BodyOf(mna)), "MethodNotAllowed") << mna;
      EXPECT_TRUE(HasHeader(mna, "\r\nAllow: " + allow + "\r\n")) << mna;
    }
  }
  // 400 — malformed JSON and domain validation.
  util::Json bad =
      BodyOf(Http(port_, "POST", "/v1/kb/default/graph", "{oops"));
  EXPECT_EQ(ErrorCodeOf(bad), "ParseError");
  EXPECT_EQ(ErrorCodeOf(
                BodyOf(Http(port_, "POST", "/v1/kb/default/graph", "{}"))),
            "InvalidArgument");
  // No graph loaded yet.
  EXPECT_EQ(StatusOf(Http(port_, "GET", "/v1/kb/default/stats")), 400);
  EXPECT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/default/solve")), 400);
  // 501 — transfer encodings we must not guess at.
  const std::string gzip = RawRequest(
      port_,
      "POST /v1/kb/default/graph HTTP/1.1\r\nHost: t\r\n"
      "Transfer-Encoding: gzip\r\n\r\n");
  EXPECT_EQ(StatusOf(gzip), 501) << gzip;
  EXPECT_EQ(ErrorCodeOf(BodyOf(gzip)), "Unsupported");
  // 400 and close — a message framed two ways (RFC 9112 §6.3). Each
  // carries a pipelined second request: had the server picked one header
  // and kept the connection, that request would get a second response.
  const std::string body = "{\"text\":\"a p b [1,2] 0.9 .\\n\"}";
  const std::string next =
      "GET /v1/kb/default/graph HTTP/1.1\r\nHost: t\r\n"
      "Connection: close\r\n\r\n";
  const std::string both = RawRequest(
      port_, StringPrintf("POST /v1/kb/default/graph HTTP/1.1\r\nHost: t\r\n"
                          "Content-Length: 3\r\n"
                          "Transfer-Encoding: chunked\r\n\r\n"
                          "%zx\r\n%s\r\n0\r\n\r\n",
                          body.size(), body.c_str()) +
                 next);
  const std::string disagree = RawRequest(
      port_, StringPrintf("POST /v1/kb/default/graph HTTP/1.1\r\nHost: t\r\n"
                          "Content-Length: 0\r\n"
                          "Content-Length: %zu\r\n\r\n%s",
                          body.size(), body.c_str()) +
                 next);
  // 400 and close — malformed field lines (RFC 9112 §5.1, §5.2, §2.2):
  // whitespace before the colon, an obs-fold line, a line with no colon.
  // Trimmed into fields, the first three would frame the message.
  const std::string spaced_length = RawRequest(
      port_, StringPrintf("POST /v1/kb/default/graph HTTP/1.1\r\nHost: t\r\n"
                          "Content-Length : %zu\r\n\r\n%s",
                          body.size(), body.c_str()) +
                 next);
  const std::string spaced_chunked = RawRequest(
      port_, StringPrintf("POST /v1/kb/default/graph HTTP/1.1\r\nHost: t\r\n"
                          "Transfer-Encoding : chunked\r\n\r\n"
                          "%zx\r\n%s\r\n0\r\n\r\n",
                          body.size(), body.c_str()) +
                 next);
  const std::string folded = RawRequest(
      port_, StringPrintf("POST /v1/kb/default/graph HTTP/1.1\r\nHost: t\r\n"
                          " Content-Length: %zu\r\n\r\n%s",
                          body.size(), body.c_str()) +
                 next);
  const std::string no_colon = RawRequest(
      port_, StringPrintf("POST /v1/kb/default/graph HTTP/1.1\r\nHost: t\r\n"
                          "Content-Length: %zu\r\nX-Note none\r\n\r\n%s",
                          body.size(), body.c_str()) +
                 next);
  for (const std::string* framed : {&both, &disagree, &spaced_length,
                                    &spaced_chunked, &folded, &no_colon}) {
    EXPECT_EQ(StatusOf(*framed), 400) << *framed;
    EXPECT_EQ(ErrorCodeOf(BodyOf(*framed)), "InvalidArgument") << *framed;
    EXPECT_TRUE(HasHeader(*framed, "Connection: close")) << *framed;
    EXPECT_EQ(framed->find("HTTP/1.1", 1), std::string::npos) << *framed;
  }
  // No refused body reached the KB.
  EXPECT_EQ(engine_->version(), 0u);
  // A repeated Content-Length with one value is harmless framing.
  const std::string repeated = RawRequest(
      port_, StringPrintf("POST /v1/kb/default/graph HTTP/1.1\r\nHost: t\r\n"
                          "Content-Length: %zu\r\nContent-Length: %zu\r\n"
                          "Connection: close\r\n\r\n%s",
                          body.size(), body.size(), body.c_str()));
  EXPECT_EQ(StatusOf(repeated), 200) << repeated;
  EXPECT_EQ(BodyOf(repeated).GetInt("num_facts", -1), 1);
}

TEST_F(ServerTest, AuthTokenGate) {
  // A second server with auth on, against the same registry.
  RouterOptions router;
  router.auth_token = "s3cret";
  HttpServer::Options options;
  options.port = 0;
  options.pool = registry_.pool();
  HttpServer secured(options, MakeApiHandler(&registry_, router));
  auto port = secured.Start();
  ASSERT_TRUE(port.ok());

  // 401 without credentials (uniform envelope + WWW-Authenticate).
  const std::string anon = Http(*port, "GET", "/v1/kb");
  EXPECT_EQ(StatusOf(anon), 401);
  EXPECT_EQ(ErrorCodeOf(BodyOf(anon)), "Unauthenticated");
  EXPECT_TRUE(HasHeader(anon, "WWW-Authenticate: Bearer")) << anon;
  // 401 for a non-bearer scheme.
  EXPECT_EQ(StatusOf(Http(*port, "GET", "/v1/kb", "",
                          "Authorization: Basic dXNlcjpwYXNz\r\n")),
            401);
  // 403 for a wrong token.
  const std::string wrong =
      Http(*port, "GET", "/v1/kb", "", "Authorization: Bearer nope\r\n");
  EXPECT_EQ(StatusOf(wrong), 403);
  EXPECT_EQ(ErrorCodeOf(BodyOf(wrong)), "PermissionDenied");
  // 200 with the right token (scheme is case-insensitive).
  EXPECT_EQ(StatusOf(Http(*port, "GET", "/v1/kb", "",
                          "Authorization: Bearer s3cret\r\n")),
            200);
  EXPECT_EQ(StatusOf(Http(*port, "GET", "/v1/kb", "",
                          "Authorization: bearer s3cret\r\n")),
            200);
  secured.Stop();
}

TEST_F(ServerTest, ChunkedRequestBodiesAreDecoded) {
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb", "{\"name\":\"bulk\"}")),
            201);
  // A chunked POST /v1/kb/bulk/graph split mid-JSON across three chunks,
  // with a chunk extension and a trailer — the framing a streaming bulk
  // loader would produce.
  const std::string part1 = "{\"text\":\"a p b [1,2] 0.9 .\\n";
  const std::string part2 = "a p c [3,4] 0.8 .\\n";
  const std::string part3 = "\"}";
  std::string request =
      "POST /v1/kb/bulk/graph HTTP/1.1\r\nHost: t\r\n"
      "Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
  request += StringPrintf("%zx;note=ext-ignored\r\n%s\r\n", part1.size(),
                          part1.c_str());
  request += StringPrintf("%zx\r\n%s\r\n", part2.size(), part2.c_str());
  request += StringPrintf("%zx\r\n%s\r\n", part3.size(), part3.c_str());
  request += "0\r\nX-Trailer: ignored\r\n\r\n";
  const std::string response = RawRequest(port_, request);
  EXPECT_EQ(StatusOf(response), 200) << response;
  EXPECT_EQ(BodyOf(response).GetInt("num_facts", -1), 2);

  // Keep-alive framing survives a chunked request: a second request on
  // the same connection still parses.
  std::string two =
      "POST /v1/kb/bulk/rules HTTP/1.1\r\nHost: t\r\n"
      "Transfer-Encoding: chunked\r\n\r\n";
  const std::string rules_body =
      "{\"text\":\"c1: quad(x, p, y, t) & quad(x, p, z, t') & y != z -> "
      "disjoint(t, t') .\"}";
  two += StringPrintf("%zx\r\n%s\r\n0\r\n\r\n", rules_body.size(),
                      rules_body.c_str());
  two +=
      "GET /v1/kb/bulk/graph HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
      "\r\n";
  const std::string pipelined = RawRequest(port_, two);
  size_t first = pipelined.find("HTTP/1.1 200");
  ASSERT_NE(first, std::string::npos) << pipelined;
  EXPECT_NE(pipelined.find("HTTP/1.1 200", first + 1), std::string::npos)
      << pipelined;
}

TEST_F(ServerTest, KeepAliveServesSequentialRequests) {
  ASSERT_TRUE(engine_->LoadGraphText("a p b [1,2] 0.9 .").ok());
  const std::string two =
      "GET /v1/kb/default/graph HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /v1/kb/default/graph HTTP/1.1\r\nHost: t\r\n"
      "Connection: close\r\n\r\n";
  const std::string response = RawRequest(port_, two);
  // Two complete responses on one connection.
  size_t first = response.find("HTTP/1.1 200");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(response.find("HTTP/1.1 200", first + 1), std::string::npos);
}

TEST_F(ServerTest, ConcurrentReadsDuringWrites) {
  ASSERT_TRUE(engine_->LoadGraphText(R"(
    CR coach Chelsea [2000,2004] 0.9 .
    CR coach Napoli [2001,2003] 0.6 .
  )")
                  .ok());
  ASSERT_TRUE(engine_
                  ->AddRulesText(
                      "c2: quad(x, coach, y, t) & quad(x, coach, z, t') & "
                      "y != z -> disjoint(t, t') .")
                  .ok());
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([this, &failures] {
      for (int i = 0; i < 10; ++i) {
        const std::string response =
            Http(port_, "GET", "/v1/kb/default/graph");
        if (StatusOf(response) != 200) {
          ++failures;
          return;
        }
        util::Json body = BodyOf(response);
        // Self-consistency: live facts reported by a snapshot never
        // disagree with its own fact count fields.
        if (body.GetInt("num_live_facts", -1) >
            body.GetInt("num_facts", -2)) {
          ++failures;
          return;
        }
      }
    });
  }
  for (int b = 0; b < 5; ++b) {
    const std::string script = StringPrintf(
        "{\"script\":\"+ CR coach club%d [%d,%d] 0.5 .\\n\"}", b, 2006 + b,
        2007 + b);
    EXPECT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/default/edits", script)),
              200);
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------- SSE

/// Incremental SSE reader: collects complete `\n\n`-terminated frames.
struct SseReader {
  int fd = -1;
  std::string buffer;

  bool Open(int port, const std::string& path) {
    fd = Connect(port);
    if (fd < 0) return false;
    const std::string request = StringPrintf(
        "GET %s HTTP/1.1\r\nHost: t\r\nAccept: text/event-stream\r\n\r\n",
        path.c_str());
    return ::send(fd, request.data(), request.size(), 0) ==
           static_cast<ssize_t>(request.size());
  }

  /// Blocks until one more frame (headers skipped) or EOF; empty = EOF.
  /// Comment frames (keep-alives, `: skip <v>` suppressions) are dropped
  /// unless `keep_comments` is set.
  std::string NextFrame(bool keep_comments = false) {
    for (;;) {
      // Strip the response headers once.
      const size_t head = buffer.find("\r\n\r\n");
      if (head != std::string::npos) buffer.erase(0, head + 4);
      const size_t frame_end = buffer.find("\n\n");
      if (frame_end != std::string::npos) {
        std::string frame = buffer.substr(0, frame_end);
        buffer.erase(0, frame_end + 2);
        if (!keep_comments && frame.rfind(":", 0) == 0) continue;
        return frame;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer.append(chunk, static_cast<size_t>(n));
    }
  }

  void Close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

int64_t VersionOf(const std::string& frame) {
  const size_t data = frame.find("data: ");
  if (data == std::string::npos) return -1;
  auto parsed = util::Json::Parse(
      Trim(std::string_view(frame).substr(data + 6)));
  if (!parsed.ok()) return -1;
  return parsed->GetInt("version", -1);
}

TEST_F(ServerTest, SseSubscriberSeesEveryVersionInOrder) {
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb", "{\"name\":\"live\"}")),
            201);
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/live/graph",
                          "{\"text\":\"a p b [1,2] 0.9 .\\n\"}")),
            200);

  SseReader reader;
  ASSERT_TRUE(reader.Open(port_, "/v1/kb/live/subscribe"));
  // The initial event is the snapshot current at subscribe time; reading
  // it first also guarantees the subscription is registered before any
  // of the edits below publish.
  const std::string initial = reader.NextFrame();
  ASSERT_NE(initial, "");
  EXPECT_NE(initial.find("event: snapshot"), std::string::npos) << initial;
  const int64_t base = VersionOf(initial);
  ASSERT_GE(base, 1);

  // A 10-batch edit stream; every batch publishes exactly one version.
  for (int b = 0; b < 10; ++b) {
    const std::string script = StringPrintf(
        "{\"script\":\"+ a p c%d [%d,%d] 0.5 .\\n\"}", b, 10 + b, 11 + b);
    ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/live/edits", script)),
              200);
  }

  // The subscriber must observe versions base+1 .. base+10, in order,
  // with no gaps and no duplicates.
  for (int i = 1; i <= 10; ++i) {
    const std::string frame = reader.NextFrame();
    ASSERT_NE(frame, "") << "stream ended early at event " << i;
    EXPECT_NE(frame.find("event: snapshot"), std::string::npos) << frame;
    EXPECT_EQ(VersionOf(frame), base + i) << frame;
  }
  reader.Close();
}

TEST_F(ServerTest, SseMaxEventsAndDigestShape) {
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb", "{\"name\":\"cap\"}")),
            201);
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/cap/graph",
                          "{\"text\":\"a p b [1,2] 0.9 .\\n\"}")),
            200);
  SseReader reader;
  ASSERT_TRUE(reader.Open(port_, "/v1/kb/cap/subscribe?max_events=1"));
  const std::string frame = reader.NextFrame();
  ASSERT_NE(frame, "");
  EXPECT_NE(frame.find("id: 1"), std::string::npos) << frame;
  const size_t data = frame.find("data: ");
  ASSERT_NE(data, std::string::npos);
  auto digest = util::Json::Parse(Trim(std::string_view(frame).substr(
      data + 6)));
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(digest->GetString("kb", ""), "cap");
  EXPECT_EQ(digest->GetInt("num_facts", -1), 1);
  EXPECT_EQ(digest->GetInt("num_live_facts", -1), 1);
  // max_events=1: the server ends the stream after the initial event.
  EXPECT_EQ(reader.NextFrame(), "");
  reader.Close();

  // Subscribing to a deleted KB's engine ends with a close event: delete
  // while a subscriber is attached.
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb", "{\"name\":\"doomed\"}")),
            201);
  SseReader watcher;
  ASSERT_TRUE(watcher.Open(port_, "/v1/kb/doomed/subscribe"));
  ASSERT_NE(watcher.NextFrame(), "");  // initial snapshot
  ASSERT_EQ(StatusOf(Http(port_, "DELETE", "/v1/kb/doomed")), 200);
  const std::string close_frame = watcher.NextFrame();
  EXPECT_NE(close_frame.find("event: close"), std::string::npos)
      << close_frame;
  EXPECT_NE(close_frame.find("\"reason\":\"deleted\""), std::string::npos)
      << close_frame;
  EXPECT_EQ(watcher.NextFrame(), "");  // then EOF
  watcher.Close();
}

TEST_F(ServerTest, SsePredicateFilterSkipsUntouchedVersions) {
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb", "{\"name\":\"filt\"}")),
            201);
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/filt/graph",
                          "{\"text\":\"a p b [1,2] 0.9 .\\n\"}")),
            200);

  SseReader reader;
  ASSERT_TRUE(reader.Open(port_, "/v1/kb/filt/subscribe?predicates=q,r"));
  const std::string initial = reader.NextFrame();
  ASSERT_NE(initial, "");  // initial snapshot is always delivered
  const int64_t base = VersionOf(initial);
  ASSERT_GE(base, 1);

  // One edit touching only p (filtered out), then one touching q
  // (delivered).
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/filt/edits",
                          "{\"script\":\"+ a p c [3,4] 0.5 .\\n\"}")),
            200);
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/filt/edits",
                          "{\"script\":\"+ a q d [5,6] 0.5 .\\n\"}")),
            200);

  // The p-only version surfaces as a `: skip` comment (resume cursor
  // still advances), the q version as a real snapshot event.
  bool saw_skip = false;
  std::string frame;
  for (;;) {
    frame = reader.NextFrame(/*keep_comments=*/true);
    ASSERT_NE(frame, "") << "stream ended before the q edit arrived";
    if (frame.rfind(":", 0) == 0) {
      saw_skip = saw_skip ||
                 frame.find(StringPrintf(": skip %lld",
                                         (long long)(base + 1))) == 0;
      continue;
    }
    break;
  }
  EXPECT_TRUE(saw_skip);
  EXPECT_NE(frame.find("event: snapshot"), std::string::npos) << frame;
  EXPECT_EQ(VersionOf(frame), base + 2) << frame;
  reader.Close();

  // Malformed filter: only empty names.
  EXPECT_EQ(StatusOf(Http(port_, "GET",
                          "/v1/kb/filt/subscribe?predicates=%2C")),
            400);
}

TEST_F(ServerTest, MineEndpointDiscoversAndAdoptsRules) {
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb", "{\"name\":\"miner\"}")),
            201);
  // 30 players with two non-overlapping club spells each: textbook
  // disjointness evidence.
  std::string tq;
  for (int i = 0; i < 30; ++i) {
    tq += StringPrintf("pl%d playsFor club%d [2000,2003] 0.9 .\\n", i,
                       i % 5);
    tq += StringPrintf("pl%d playsFor club%d [2005,2008] 0.8 .\\n", i,
                       5 + i % 5);
  }
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/miner/graph",
                          "{\"text\":\"" + tq + "\"}")),
            200);

  // Read-only mine: report + canonical .tcr document, nothing installed.
  const std::string response =
      Http(port_, "POST", "/v1/kb/miner/mine", "{\"min_support\":5}");
  ASSERT_EQ(StatusOf(response), 200) << response;
  const util::Json body = BodyOf(response);
  EXPECT_FALSE(body.GetBool("adopted", true));
  ASSERT_GE(body.GetInt("num_rules", 0), 1) << response;
  const util::Json* rules = body.Find("rules");
  ASSERT_NE(rules, nullptr);
  ASSERT_TRUE(rules->is_array());
  ASSERT_FALSE(rules->items().empty());
  const util::Json& top = rules->items().front();
  EXPECT_EQ(top.GetString("name", ""), "disjoint_playsFor");
  EXPECT_EQ(top.GetString("kind", ""), "disjointness");
  EXPECT_TRUE(top.GetBool("hard", false));  // clean data
  EXPECT_NE(body.GetString("tcr", "").find("disjoint_playsFor"),
            std::string::npos);
  ASSERT_EQ(StatusOf(Http(port_, "GET", "/v1/kb/miner/mine")), 405);
  EXPECT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/miner/mine",
                          "{\"max_bucket_facts\":-1}")),
            400);

  // Suggest runs the same pass and lists the same rules, but never
  // installs them, even when its body asks to adopt.
  const std::string suggested =
      Http(port_, "POST", "/v1/kb/miner/suggest",
           "{\"min_support\":5,\"adopt\":true}");
  ASSERT_EQ(StatusOf(suggested), 200) << suggested;
  const util::Json suggest = BodyOf(suggested);
  ASSERT_EQ(suggest.GetInt("num_suggestions", -1),
            body.GetInt("num_rules", -2));
  EXPECT_EQ(suggest.Find("suggestions")->items().front().GetString("rule", ""),
            top.GetString("text", "-"));
  EXPECT_EQ(BodyOf(Http(port_, "GET", "/v1/kb/miner/rules"))
                .GetInt("num_rules", -1),
            0);

  // Adopt: the mined rules land via the normal WAL'd rule write and the
  // conflicts endpoint detects with them.
  const std::string adopt = Http(port_, "POST", "/v1/kb/miner/mine",
                                 "{\"min_support\":5,\"adopt\":true}");
  ASSERT_EQ(StatusOf(adopt), 200) << adopt;
  const util::Json adopted = BodyOf(adopt);
  EXPECT_TRUE(adopted.GetBool("adopted", false));
  EXPECT_GE(adopted.GetInt("added", 0), 1);
  EXPECT_GT(adopted.GetInt("adopted_version", 0),
            adopted.GetInt("version", 0));
  const util::Json rules_now =
      BodyOf(Http(port_, "GET", "/v1/kb/miner/rules"));
  EXPECT_GE(rules_now.GetInt("num_rules", 0), 1);
  const util::Json conflicts =
      BodyOf(Http(port_, "GET", "/v1/kb/miner/conflicts"));
  EXPECT_EQ(conflicts.GetInt("num_conflicts", -1), 0);  // clean data
}

TEST_F(ServerTest, AsOfTimeTravelReads) {
  // Every read endpoint accepts ?as_of=<version> and serves the retained
  // snapshot of that version: valid → 200, garbage → 400, never-published
  // → 404, evicted from the retention ring → 410.
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb", "{\"name\":\"tt\"}")),
            201);
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/tt/graph",
                          "{\"text\":\"a p b [1,2] 0.9 .\\n\"}")),
            200);  // version 1
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/tt/rules",
                          "{\"text\":\"c1: quad(x, p, y, t) & quad(x, p, "
                          "z, t') & y != z -> disjoint(t, t') .\"}")),
            200);  // version 2
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/tt/edits",
                          "{\"script\":\"+ a p c [1,3] 0.5 .\\n\"}")),
            200);  // version 3

  // Happy path: the frozen version, not the current one.
  util::Json old_graph =
      BodyOf(Http(port_, "GET", "/v1/kb/tt/graph?as_of=1"));
  EXPECT_EQ(old_graph.GetInt("version", -1), 1);
  EXPECT_EQ(old_graph.GetInt("num_live_facts", -1), 1);
  util::Json now_graph = BodyOf(Http(port_, "GET", "/v1/kb/tt/graph"));
  EXPECT_EQ(now_graph.GetInt("version", -1), 3);
  EXPECT_EQ(now_graph.GetInt("num_live_facts", -1), 2);
  util::Json old_stats =
      BodyOf(Http(port_, "GET", "/v1/kb/tt/stats?as_of=1"));
  EXPECT_EQ(old_stats.GetInt("version", -1), 1);
  const util::Json* stats_body = old_stats.Find("stats");
  ASSERT_NE(stats_body, nullptr);
  EXPECT_EQ(stats_body->GetInt("num_facts", -1), 1);
  // Version 1 predates the rule upload, so its conflict set is empty and
  // its rule list too — every other read endpoint resolves the same way.
  EXPECT_EQ(StatusOf(Http(port_, "GET", "/v1/kb/tt/rules?as_of=1")), 200);
  EXPECT_EQ(StatusOf(Http(port_, "GET", "/v1/kb/tt/conflicts?as_of=1")),
            200);
  EXPECT_EQ(
      StatusOf(Http(port_, "GET", "/v1/kb/tt/complete?prefix=p&as_of=1")),
      200);
  EXPECT_EQ(StatusOf(Http(port_, "GET", "/v1/kb/tt/suggest?as_of=1")), 200);

  // Garbage and out-of-range versions.
  EXPECT_EQ(StatusOf(Http(port_, "GET", "/v1/kb/tt/graph?as_of=banana")),
            400);
  EXPECT_EQ(StatusOf(Http(port_, "GET", "/v1/kb/tt/graph?as_of=-1")), 400);
  EXPECT_EQ(StatusOf(Http(port_, "GET", "/v1/kb/tt/graph?as_of=99")), 404);

  // Push version 1 out of the default 8-deep retention ring; it answers
  // 410 Gone from then on while a still-retained version keeps serving.
  for (int b = 0; b < 9; ++b) {
    const std::string script = StringPrintf(
        "{\"script\":\"+ a p d%d [%d,%d] 0.5 .\\n\"}", b, 10 + b, 11 + b);
    ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/tt/edits", script)),
              200);
  }
  EXPECT_EQ(StatusOf(Http(port_, "GET", "/v1/kb/tt/graph?as_of=1")), 410);
  EXPECT_EQ(ErrorCodeOf(BodyOf(Http(port_, "GET",
                                    "/v1/kb/tt/graph?as_of=1"))),
            "Gone");
  EXPECT_EQ(StatusOf(Http(port_, "GET", "/v1/kb/tt/stats?as_of=12")), 200);
}

TEST_F(ServerTest, SseResumeFromRetainedVersions) {
  // An in-memory KB has no WAL, but a reconnecting subscriber whose
  // missed versions are all still in the retention ring gets them
  // replayed as snapshot events — in order, no gaps, no duplicates.
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb", "{\"name\":\"ring\"}")),
            201);
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/ring/graph",
                          "{\"text\":\"a p b [1,2] 0.9 .\\n\"}")),
            200);  // version 1
  for (int b = 0; b < 2; ++b) {
    const std::string script = StringPrintf(
        "{\"script\":\"+ a p c%d [%d,%d] 0.5 .\\n\"}", b, 10 + b, 11 + b);
    ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/ring/edits", script)),
              200);  // versions 2, 3
  }

  const std::string resumed =
      Http(port_, "GET", "/v1/kb/ring/subscribe?max_events=2", "",
           "Last-Event-ID: 1\r\n");
  EXPECT_EQ(resumed.find("event: edit"), std::string::npos) << resumed;
  const size_t v2 = resumed.find("id: 2");
  const size_t v3 = resumed.find("id: 3");
  ASSERT_NE(v2, std::string::npos) << resumed;
  ASSERT_NE(v3, std::string::npos) << resumed;
  EXPECT_LT(v2, v3);

  // A resume whose chain fell out of the ring cannot replay; it degrades
  // to the plain initial-snapshot resync.
  for (int b = 0; b < 9; ++b) {
    const std::string script = StringPrintf(
        "{\"script\":\"+ a p e%d [%d,%d] 0.5 .\\n\"}", b, 30 + b, 31 + b);
    ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/ring/edits", script)),
              200);  // versions 4..12; version 2 leaves the ring
  }
  const std::string resync =
      Http(port_, "GET", "/v1/kb/ring/subscribe?max_events=1", "",
           "Last-Event-ID: 1\r\n");
  EXPECT_EQ(CountOf(resync, "event: snapshot"), 1u) << resync;
  EXPECT_NE(resync.find("id: 12"), std::string::npos) << resync;
}

TEST_F(ServerTest, StopIsIdempotentAndClean) {
  server_->Stop();
  server_->Stop();  // second stop is a no-op
}

TEST_F(ServerTest, ConcurrentStopsRaceCleanly) {
  // Regression: before Stop() serialized on the lifecycle mutex, the
  // exchange(false) loser read listen_fd_ and acceptor_.joinable() while
  // the winner was join()ing the thread and close()ing the fd — a data
  // race (caught by the TSan CI job running this test) and a potential
  // double-close. Losers must block until the winner has fully stopped.
  std::vector<std::thread> stoppers;
  stoppers.reserve(8);
  for (int i = 0; i < 8; ++i) {
    stoppers.emplace_back([this] { server_->Stop(); });
  }
  for (auto& t : stoppers) t.join();

  // After every Stop() returned the server is really down: the port no
  // longer accepts (Http returns an empty response on connect failure).
  EXPECT_EQ(Http(port_, "GET", "/v1/kb"), "");
}

TEST_F(ServerTest, StopOnSharedPoolIgnoresOtherServersStreams) {
  // Two servers on one registry pool; an open-ended SSE stream on B must
  // not gate Stop() on A — A waits only on its own connections.
  auto pool = registry_.pool();
  HttpServer::Options options;
  options.port = 0;
  options.pool = pool;
  HttpServer a(options, MakeApiHandler(&registry_));
  HttpServer b(options, MakeApiHandler(&registry_));
  auto port_a = a.Start();
  auto port_b = b.Start();
  ASSERT_TRUE(port_a.ok());
  ASSERT_TRUE(port_b.ok());

  SseReader reader;
  ASSERT_TRUE(reader.Open(*port_b, "/v1/kb/default/subscribe"));
  ASSERT_NE(reader.NextFrame(), "");  // stream is live on B

  const auto t0 = std::chrono::steady_clock::now();
  a.Stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(2))
      << "Stop() blocked on another server's stream";

  // B still serves (same pool, unaffected by A's stop).
  EXPECT_EQ(StatusOf(Http(*port_b, "GET", "/v1/kb")), 200);
  reader.Close();
  b.Stop();  // its stream observes stopping() within a poll tick
}

TEST(HttpServerPool, StartWithoutPoolIsRefused) {
  HttpServer server(HttpServer::Options(),
                    [](const HttpRequest&) { return HttpResponse(); });
  auto port = server.Start();
  ASSERT_FALSE(port.ok());
  EXPECT_EQ(port.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------- observability

TEST_F(ServerTest, MetricsEndpointExposesAssertedValues) {
  // The default registry is process-global: assert deltas of cumulative
  // series between two scrapes, and absolutes only for per-KB gauges of
  // a KB this test created.
  const std::string first = Http(port_, "GET", "/metrics");
  ASSERT_EQ(StatusOf(first), 200);
  EXPECT_TRUE(HasHeader(first, "Content-Type: text/plain; version=0.0.4"))
      << first;
  const std::string before = TextBodyOf(first);
  // The scrape itself is in flight while it renders.
  EXPECT_GE(MetricValue(before, "tecore_http_requests_in_flight"), 1);

  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb", "{\"name\":\"met\"}")),
            201);
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/met/graph",
                          "{\"text\":\"a p b [1,2] 0.9 .\\n"
                          "a p c [3,4] 0.8 .\\n\"}")),
            200);
  ASSERT_EQ(StatusOf(Http(port_, "GET", "/v1/kb/met/stats")), 200);
  ASSERT_EQ(StatusOf(Http(port_, "GET", "/v1/kb/ghost/stats")), 404);

  const std::string after = TextBodyOf(Http(port_, "GET", "/metrics"));
  const auto delta = [&](const std::string& series) {
    const long long b = MetricValue(before, series);
    const long long a = MetricValue(after, series);
    return a - (b < 0 ? 0 : b);
  };
  // Request counters, labelled by endpoint and status class.
  EXPECT_GE(delta("tecore_http_requests_total{endpoint=\"graph\","
                  "status=\"2xx\"}"),
            1);
  EXPECT_GE(delta("tecore_http_requests_total{endpoint=\"stats\","
                  "status=\"2xx\"}"),
            1);
  EXPECT_GE(delta("tecore_http_requests_total{endpoint=\"stats\","
                  "status=\"4xx\"}"),
            1);
  EXPECT_GE(delta("tecore_http_requests_total{endpoint=\"metrics\","
                  "status=\"2xx\"}"),
            1);
  // Latency histogram observed each of those requests.
  EXPECT_GE(
      delta("tecore_http_request_duration_micros_count{endpoint=\"graph\"}"),
      1);
  // Per-KB gauges are absolute truths about the KB just created.
  EXPECT_EQ(MetricValue(after, "tecore_kb_facts{kb=\"met\"}"), 2);
  EXPECT_EQ(MetricValue(after, "tecore_kb_version{kb=\"met\"}"), 1);

  // Deleting the KB retires its series.
  ASSERT_EQ(StatusOf(Http(port_, "DELETE", "/v1/kb/met")), 200);
  const std::string gone = TextBodyOf(Http(port_, "GET", "/metrics"));
  EXPECT_EQ(MetricValue(gone, "tecore_kb_facts{kb=\"met\"}"), -1);

  // The exposition endpoint is GET-only.
  EXPECT_EQ(StatusOf(Http(port_, "POST", "/metrics")), 405);
}

TEST_F(ServerTest, MetricsCountPipelineStages) {
  const std::string before = TextBodyOf(Http(port_, "GET", "/metrics"));
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/default/graph",
                          "{\"text\":\"x coach a [1,5] 0.9 .\\n"
                          "x coach b [2,6] 0.8 .\\n\"}")),
            200);
  ASSERT_EQ(StatusOf(Http(
                port_, "POST", "/v1/kb/default/rules",
                "{\"text\":\"c1: quad(x, coach, y, t) & "
                "quad(x, coach, z, t') & y != z -> disjoint(t, t') .\"}")),
            200);
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/default/solve", "{}")),
            200);
  const std::string after = TextBodyOf(Http(port_, "GET", "/metrics"));
  const auto delta = [&](const char* stage) {
    const std::string series = StringPrintf(
        "tecore_stage_duration_micros_count{stage=\"%s\"}", stage);
    const long long b = MetricValue(before, series);
    const long long a = MetricValue(after, series);
    return a - (b < 0 ? 0 : b);
  };
  EXPECT_GE(delta("ground"), 1);
  EXPECT_GE(delta("canonicalize"), 1);
  EXPECT_GE(delta("solve"), 1);
  EXPECT_GE(delta("publish"), 1);  // graph/rules/solve all publish
}

TEST_F(ServerTest, MetricsExportIncrementalInternals) {
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb", "{\"name\":\"inc\"}")),
            201);
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/inc/graph",
                          "{\"text\":\"A playsFor X [1,5] 0.9 .\\n"
                          "A playsFor Y [3,8] 0.6 .\\n"
                          "X locatedIn C1 [1,9] 0.9 .\\n\"}")),
            200);
  ASSERT_EQ(StatusOf(Http(
                port_, "POST", "/v1/kb/inc/rules",
                "{\"text\":\"c1: quad(x, playsFor, y, t) & "
                "quad(x, playsFor, z, t') & y != z -> disjoint(t, t') .\"}")),
            200);
  // The first edit seeds the incremental resolver; the second is the
  // measured one: a relocation, which no rule reads.
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/inc/edits",
                          "{\"script\":\"+ X locatedIn C2 [1,3] 0.7 .\\n\"}")),
            200);
  const std::string before = TextBodyOf(Http(port_, "GET", "/metrics"));
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/inc/edits",
                          "{\"script\":\"+ Y locatedIn C3 [2,4] 0.8 .\\n\"}")),
            200);
  const std::string after = TextBodyOf(Http(port_, "GET", "/metrics"));
  const auto delta = [&](const std::string& series) {
    const long long b = MetricValue(before, series);
    const long long a = MetricValue(after, series);
    return a - (b < 0 ? 0 : b);
  };
  EXPECT_EQ(delta("tecore_incremental_updates_total{path=\"fast\"}"), 1);
  EXPECT_EQ(delta("tecore_incremental_updates_total{path=\"rebuild\"}"), 0);
  EXPECT_LE(delta("tecore_solve_components_total{outcome=\"solved\"}"), 1);
  EXPECT_GE(delta("tecore_solve_components_total{outcome=\"reused\"}"), 2);
  // The edit copies nothing KB-sized: the one term it interns is its new
  // object, C3. A result that re-interned the kept facts into a graph of
  // its own would count their terms too.
  EXPECT_EQ(delta("tecore_dict_terms_interned_total"), 1);
}

TEST_F(ServerTest, DerivedFactsRenderOverHttp) {
  // The running example (Fig. 1) under the paper's rules (Figs. 4 and 6):
  // f1 and f2 derive CR's employer and home for the Palermo spell. Both
  // the solve and an edit batch list them, rendered with the snapshot's
  // graph, with the strings and scores pinned.
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb", "{\"name\":\"paper\"}")),
            201);
  util::Json graph = util::Json::Object();
  graph.Set("text", util::Json::Str(rdf::WriteGraphText(
                        datagen::RunningExampleGraph(true))));
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/paper/graph", graph.Dump())),
            200);
  auto inference = rules::PaperInferenceRules();
  auto constraints = rules::PaperConstraints();
  ASSERT_TRUE(inference.ok() && constraints.ok());
  inference->Merge(*constraints);
  util::Json rules = util::Json::Object();
  rules.Set("text", util::Json::Str(rules::WriteRulesText(*inference)));
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/paper/rules", rules.Dump())),
            200);

  const std::string mln_derived =
      "\"derived_facts\":["
      "{\"fact\":\"(CR, livesIn, PalermoCity, [1984,1986]) 0.83\","
      "\"score\":0.8320183851339245},"
      "{\"fact\":\"(CR, worksFor, Palermo, [1984,1986]) 0.92\","
      "\"score\":0.9241418199787566}]";
  const std::string solved =
      Http(port_, "POST", "/v1/kb/paper/solve", "{\"max_facts\":10}");
  EXPECT_EQ(StatusOf(solved), 200) << solved;
  EXPECT_EQ(BodyOf(solved).GetInt("derived", -1), 2);
  EXPECT_NE(solved.find(mln_derived), std::string::npos) << solved;
  const std::string psl = Http(port_, "POST", "/v1/kb/paper/solve",
                               "{\"solver\":\"psl\",\"max_facts\":10}");
  EXPECT_EQ(StatusOf(psl), 200) << psl;
  EXPECT_NE(psl.find("\"derived_facts\":["
                     "{\"fact\":\"(CR, livesIn, PalermoCity, [1984,1986]) "
                     "1.00\",\"score\":1},"
                     "{\"fact\":\"(CR, worksFor, Palermo, [1984,1986]) "
                     "1.00\",\"score\":1}]"),
            std::string::npos)
      << psl;
  // An edit batch that interns a new term (Roma) and leaves both
  // derivations standing.
  const std::string edited = Http(
      port_, "POST", "/v1/kb/paper/edits",
      "{\"script\":\"+ CR coach Roma [2003,2006] 0.4 .\\n\",\"max_facts\":10}");
  EXPECT_EQ(StatusOf(edited), 200) << edited;
  EXPECT_NE(edited.find(mln_derived), std::string::npos) << edited;
}

TEST_F(ServerTest, RetiredThreadKeysAreIgnored) {
  // Solve, edit and mine bodies take no thread counts: `threads` and
  // `ground_threads` are unknown keys there. Clients that send them, the
  // service benchmark's serve_read editor among them, must get the answer
  // they get without.
  const std::string graph =
      "{\"text\":\"A playsFor X [1,5] 0.9 .\\n"
      "A playsFor Y [3,8] 0.6 .\\n"
      "B playsFor X [2,6] 0.8 .\\n"
      "B playsFor Z [4,7] 0.7 .\\n"
      "X locatedIn C1 [1,9] 0.9 .\\n\"}";
  const std::string rules =
      "{\"text\":\"c1: quad(x, playsFor, y, t) & "
      "quad(x, playsFor, z, t') & y != z -> disjoint(t, t') .\"}";
  // [0] without the retired keys, [1] with them; each a solve, then an
  // edit with svcbench's serve_read body (one relocation insert, no fact
  // lists), then a mine.
  util::Json solves[2], edits[2], mines[2];
  for (int with_keys = 0; with_keys < 2; ++with_keys) {
    const std::string kb = with_keys ? "keys" : "plain";
    const std::string base = "/v1/kb/" + kb;
    const std::string extra =
        with_keys ? ",\"threads\":4,\"ground_threads\":4" : "";
    ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb",
                            "{\"name\":\"" + kb + "\"}")),
              201);
    ASSERT_EQ(StatusOf(Http(port_, "POST", base + "/graph", graph)), 200);
    ASSERT_EQ(StatusOf(Http(port_, "POST", base + "/rules", rules)), 200);
    const std::string solve = Http(port_, "POST", base + "/solve",
                                   "{\"solver\":\"mln\"" + extra + "}");
    ASSERT_EQ(StatusOf(solve), 200) << solve;
    const std::string edit = Http(
        port_, "POST", base + "/edits",
        "{\"script\":\"+ X locatedIn C2 [1990,1995] 0.4321 .\\n\","
        "\"max_facts\":0" +
            extra + "}");
    ASSERT_EQ(StatusOf(edit), 200) << edit;
    const std::string mined = Http(port_, "POST", base + "/mine",
                                   "{\"min_support\":1" + extra + "}");
    ASSERT_EQ(StatusOf(mined), 200) << mined;
    solves[with_keys] = BodyOf(solve);
    edits[with_keys] = BodyOf(edit);
    mines[with_keys] = BodyOf(mined);
  }
  EXPECT_EQ(solves[0].GetInt("removed", -1), 2);  // one per player
  EXPECT_EQ(edits[0].GetInt("inserted", -1), 1);
  for (const util::Json* pair : {solves, edits}) {
    EXPECT_EQ(pair[1].GetNumber("objective", -1),
              pair[0].GetNumber("objective", -2));
    EXPECT_EQ(pair[1].GetInt("kept", -1), pair[0].GetInt("kept", -2));
    EXPECT_EQ(pair[1].GetInt("removed", -1), pair[0].GetInt("removed", -2));
  }
  EXPECT_GE(mines[0].GetInt("num_rules", -1), 1);
  EXPECT_EQ(mines[1].GetString("tcr", "-"), mines[0].GetString("tcr", ""));
}

TEST_F(ServerTest, SseSubscriberGaugeTracksOpenStreams) {
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb", "{\"name\":\"obs\"}")),
            201);
  ASSERT_EQ(StatusOf(Http(port_, "POST", "/v1/kb/obs/graph",
                          "{\"text\":\"a p b [1,2] 0.9 .\\n\"}")),
            200);
  const std::string series = "tecore_kb_sse_subscribers{kb=\"obs\"}";
  const long long base =
      MetricValue(TextBodyOf(Http(port_, "GET", "/metrics")), series);
  ASSERT_EQ(base, 0);

  SseReader reader;
  ASSERT_TRUE(reader.Open(port_, "/v1/kb/obs/subscribe"));
  ASSERT_NE(reader.NextFrame(), "");  // stream registered and live
  EXPECT_EQ(MetricValue(TextBodyOf(Http(port_, "GET", "/metrics")), series),
            1);
  reader.Close();
  // The worker only notices the dead socket when it next writes — push
  // edits until the failed send retires the stream and the gauge drops.
  long long live = 1;
  for (int i = 0; i < 100 && live != 0; ++i) {
    ASSERT_EQ(
        StatusOf(Http(port_, "POST", "/v1/kb/obs/edits",
                      StringPrintf("{\"script\":\"+ a p b%d [1,2] 0.5 .\\n\"}",
                                   i))),
        200);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    live = MetricValue(TextBodyOf(Http(port_, "GET", "/metrics")), series);
  }
  EXPECT_EQ(live, 0);
}

TEST_F(ServerTest, MetricsCountWalActivityForDurableKbs) {
  // A durable registry of its own: checkpoint after every record so the
  // checkpoint counter provably moves inside the test.
  const std::string data_dir = ::testing::TempDir() + "/obs_metrics_dur";
  std::filesystem::remove_all(data_dir);
  api::EngineRegistry::Options reg_options;
  reg_options.data_dir = data_dir;
  reg_options.storage.checkpoint_wal_records = 1;
  api::EngineRegistry durable(reg_options);
  HttpServer::Options options;
  options.port = 0;
  options.pool = durable.pool();
  HttpServer server(options, MakeApiHandler(&durable));
  auto port = server.Start();
  ASSERT_TRUE(port.ok());

  const std::string before = TextBodyOf(Http(*port, "GET", "/metrics"));
  ASSERT_EQ(StatusOf(Http(*port, "POST", "/v1/kb", "{\"name\":\"dur\"}")),
            201);
  ASSERT_EQ(StatusOf(Http(*port, "POST", "/v1/kb/dur/graph",
                          "{\"text\":\"a p b [1,2] 0.9 .\\n\"}")),
            200);
  ASSERT_EQ(StatusOf(Http(*port, "POST", "/v1/kb/dur/edits",
                          "{\"script\":\"+ a p c [3,4] 0.5 .\\n\"}")),
            200);
  ASSERT_EQ(StatusOf(Http(*port, "POST", "/v1/kb/dur/edits",
                          "{\"script\":\"+ a p d [5,6] 0.5 .\\n\"}")),
            200);
  const std::string after = TextBodyOf(Http(*port, "GET", "/metrics"));
  const auto delta = [&](const std::string& series) {
    const long long b = MetricValue(before, series);
    const long long a = MetricValue(after, series);
    return a - (b < 0 ? 0 : b);
  };
  EXPECT_GE(delta("tecore_storage_recoveries_total"), 1);  // the Open
  // The graph replacement checkpoints directly; each edit batch appends
  // one fsynced WAL record.
  EXPECT_GE(delta("tecore_wal_appends_total"), 2);
  EXPECT_GT(delta("tecore_wal_append_bytes_total"), 0);
  EXPECT_GE(delta("tecore_wal_fsyncs_total"), 2);
  EXPECT_GE(delta("tecore_checkpoints_total"), 1);
  server.Stop();
}

TEST_F(ServerTest, RequestIdEchoedOrGenerated) {
  // A client-supplied id is echoed back verbatim.
  const std::string echoed = Http(port_, "GET", "/v1/kb", "",
                                  "X-Request-Id: client-req-42\r\n");
  EXPECT_EQ(StatusOf(echoed), 200);
  EXPECT_TRUE(HasHeader(echoed, "X-Request-Id: client-req-42")) << echoed;
  // Without one the server mints an id (r-<boot>-<seq>).
  const std::string minted = Http(port_, "GET", "/v1/kb");
  EXPECT_TRUE(HasHeader(minted, "X-Request-Id: r-")) << minted;
}

TEST_F(ServerTest, MetricsAreAuthExempt) {
  RouterOptions router;
  router.auth_token = "s3cret";
  HttpServer::Options options;
  options.port = 0;
  options.pool = registry_.pool();
  HttpServer secured(options, MakeApiHandler(&registry_, router));
  auto port = secured.Start();
  ASSERT_TRUE(port.ok());
  // API requires the token; the scrape never does.
  EXPECT_EQ(StatusOf(Http(*port, "GET", "/v1/kb")), 401);
  EXPECT_EQ(StatusOf(Http(*port, "GET", "/metrics")), 200);
  secured.Stop();
}

TEST_F(ServerTest, PerKbTokensScopeAccessToTheirKb) {
  RouterOptions router;
  router.auth_token = "s3cret";
  router.kb_tokens = {{"alpha", "alpha-tok"}, {"beta", "beta-tok"}};
  HttpServer::Options options;
  options.port = 0;
  options.pool = registry_.pool();
  HttpServer secured(options, MakeApiHandler(&registry_, router));
  auto port = secured.Start();
  ASSERT_TRUE(port.ok());
  const std::string service = "Authorization: Bearer s3cret\r\n";
  const std::string alpha = "Authorization: Bearer alpha-tok\r\n";

  // Tenant lifecycle needs the service token.
  ASSERT_EQ(StatusOf(Http(*port, "POST", "/v1/kb", "{\"name\":\"alpha\"}",
                          service)),
            201);
  ASSERT_EQ(StatusOf(Http(*port, "POST", "/v1/kb", "{\"name\":\"beta\"}",
                          service)),
            201);

  // The KB token works inside its own KB — writes and reads.
  EXPECT_EQ(StatusOf(Http(*port, "POST", "/v1/kb/alpha/graph",
                          "{\"text\":\"a p b [1,2] 0.9 .\\n\"}", alpha)),
            200);
  EXPECT_EQ(StatusOf(Http(*port, "GET", "/v1/kb/alpha/stats", "", alpha)),
            200);
  EXPECT_EQ(StatusOf(Http(*port, "GET", "/v1/kb/alpha", "", alpha)), 200);

  // …and nowhere else: sibling KBs, unrouted paths, admin surface.
  const std::string cross =
      Http(*port, "GET", "/v1/kb/beta/stats", "", alpha);
  EXPECT_EQ(StatusOf(cross), 403);
  EXPECT_EQ(ErrorCodeOf(BodyOf(cross)), "PermissionDenied");
  // A former `/v1/<endpoint>` alias is unrouted, so admin scope: the KB
  // token gets 403 (never a revealing 404), the service token 404.
  for (const std::string& name : kFormerAliases) {
    EXPECT_EQ(StatusOf(Http(*port, "GET", "/v1/" + name, "", alpha)), 403)
        << name;
    EXPECT_EQ(StatusOf(Http(*port, "POST", "/v1/" + name, "", alpha)), 403)
        << name;
    EXPECT_EQ(StatusOf(Http(*port, "GET", "/v1/" + name, "", service)), 404)
        << name;
  }
  EXPECT_EQ(StatusOf(Http(*port, "GET", "/v1/kb", "", alpha)), 403);
  EXPECT_EQ(StatusOf(Http(*port, "DELETE", "/v1/kb/alpha", "", alpha)), 403);
  EXPECT_EQ(StatusOf(Http(*port, "POST", "/v1/kb", "{\"name\":\"x\"}",
                          alpha)),
            403);
  // Probing an unknown KB with a KB token is denied, not 404: the scope
  // check runs before routing can reveal what exists.
  EXPECT_EQ(StatusOf(Http(*port, "GET", "/v1/kb/ghost/stats", "", alpha)),
            403);

  // No credentials at all is 401, not 403.
  EXPECT_EQ(StatusOf(Http(*port, "GET", "/v1/kb/alpha/stats")), 401);

  // The service token retains full access, including other KBs.
  EXPECT_EQ(StatusOf(Http(*port, "GET", "/v1/kb/beta", "", service)), 200);
  EXPECT_EQ(StatusOf(Http(*port, "DELETE", "/v1/kb/beta", "", service)),
            200);
  secured.Stop();
}

}  // namespace
}  // namespace server
}  // namespace tecore
