// Durability at the HTTP layer: a server backed by --data-dir storage is
// stopped and rebuilt (same store), and every acknowledged write must be
// visible to the successor; SSE reconnects with Last-Event-ID replay the
// missed edit scripts from the edit log; oversized request bodies are
// refused with 413 for both Content-Length and chunked uploads.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "api/registry.h"
#include "server/http_server.h"
#include "server/routes.h"
#include "storage/fs.h"
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

util::Json BodyOf(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  if (split == std::string::npos) return util::Json::Null();
  auto parsed = util::Json::Parse(response.substr(split + 4));
  return parsed.ok() ? *parsed : util::Json::Null();
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

/// One durable server generation: registry over `data_dir` (recovering
/// whatever a predecessor left there) plus an HTTP front end.
class Generation {
 public:
  explicit Generation(const std::string& data_dir) {
    api::EngineRegistry::Options options;
    options.data_dir = data_dir;
    // Retain only the live snapshot so SSE resumes cannot be served from
    // the retained-version ring: these tests pin down the WAL edit-script
    // replay path (the ring path is covered in server_test.cc).
    options.engine.retain_versions = 1;
    registry_ = std::make_unique<api::EngineRegistry>(options);
    auto recovered = registry_->RecoverKbs();
    EXPECT_TRUE(recovered.ok());
    // Same bring-up as `serve --kb default`: the preload target exists,
    // created here unless recovery already restored it.
    auto created = registry_->Create("default");
    EXPECT_TRUE(created.ok() ||
                created.status().code() == StatusCode::kAlreadyExists);
    HttpServer::Options http;
    http.port = 0;
    http.pool = registry_->pool();
    http.max_body_bytes = 4096;
    server_ =
        std::make_unique<HttpServer>(http, MakeApiHandler(registry_.get()));
    auto port = server_->Start();
    EXPECT_TRUE(port.ok());
    port_ = port.ok() ? *port : 0;
  }

  ~Generation() { server_->Stop(); }

  int port() const { return port_; }

 private:
  std::unique_ptr<api::EngineRegistry> registry_;
  std::unique_ptr<HttpServer> server_;
  int port_ = 0;
};

TEST(DurabilityServer, AcknowledgedWritesSurviveRestart) {
  const std::string data_dir = ::testing::TempDir() + "/durable_http";
  ASSERT_TRUE(storage::RemoveDirRecursive(data_dir).ok());
  int64_t version = 0;
  {
    Generation first(data_dir);
    ASSERT_GT(first.port(), 0);
    EXPECT_EQ(StatusOf(Http(first.port(), "POST", "/v1/kb",
                            "{\"name\":\"durable\"}")),
              201);
    util::Json graph =
        BodyOf(Http(first.port(), "POST", "/v1/kb/durable/graph",
                    "{\"text\":\"CR coach Chelsea [2000,2004] 0.9 .\\n"
                    "CR coach Napoli [2001,2003] 0.6 .\\n\"}"));
    EXPECT_EQ(graph.GetInt("num_facts", -1), 2);
    util::Json edits =
        BodyOf(Http(first.port(), "POST", "/v1/kb/durable/edits",
                    "{\"script\":\"+ CR coach Bari [2006,2008] 0.5 .\\n\"}"));
    EXPECT_EQ(edits.GetInt("inserted", -1), 1);
    version = edits.GetInt("version", -1);
    ASSERT_GT(version, 0);
  }  // server stopped, registry destroyed — only the data dir remains

  Generation second(data_dir);
  ASSERT_GT(second.port(), 0);
  util::Json graph = BodyOf(Http(second.port(), "GET",
                                 "/v1/kb/durable/graph"));
  EXPECT_EQ(graph.GetInt("num_facts", -1), 3);
  EXPECT_EQ(graph.GetInt("version", -1), version);
  // And the recovered KB is fully operational, not just readable.
  util::Json solve =
      BodyOf(Http(second.port(), "POST", "/v1/kb/durable/solve"));
  EXPECT_TRUE(solve.GetBool("feasible", false));
  ASSERT_TRUE(storage::RemoveDirRecursive(data_dir).ok());
}

TEST(DurabilityServer, RejectedEditLeavesNothingToRecover) {
  // An edit the resolver refuses to seed for (PSL cannot take a rule with
  // a disjunctive head) fails — and must leave no WAL record behind, or a
  // restart would apply it under the version the next write gets.
  const std::string data_dir = ::testing::TempDir() + "/durable_rejected";
  ASSERT_TRUE(storage::RemoveDirRecursive(data_dir).ok());
  int64_t version = 0;
  {
    Generation first(data_dir);
    ASSERT_GT(first.port(), 0);
    ASSERT_EQ(StatusOf(Http(first.port(), "POST", "/v1/kb",
                            "{\"name\":\"strict\"}")),
              201);
    ASSERT_EQ(StatusOf(Http(first.port(), "POST", "/v1/kb/strict/graph",
                            "{\"text\":\"CR memberOf Club [2000,2004] 0.9 "
                            ".\\n\"}")),
              200);
    ASSERT_EQ(StatusOf(Http(first.port(), "POST", "/v1/kb/strict/rules",
                            "{\"text\":\"quad(x, memberOf, y, t) -> "
                            "quad(x, worksFor, y, t) | "
                            "quad(x, affiliatedWith, y, t) w = 1.0 .\"}")),
              200);
    version = BodyOf(Http(first.port(), "GET", "/v1/kb/strict/graph"))
                  .GetInt("version", -1);
    ASSERT_GT(version, 0);
    const std::string rejected =
        Http(first.port(), "POST", "/v1/kb/strict/edits",
             "{\"script\":\"+ CR memberOf Bari [2006,2008] 0.5 .\\n\","
             "\"solver\":\"psl\"}");
    EXPECT_GE(StatusOf(rejected), 400) << rejected;
    util::Json graph = BodyOf(Http(first.port(), "GET", "/v1/kb/strict/graph"));
    EXPECT_EQ(graph.GetInt("num_facts", -1), 1);
    EXPECT_EQ(graph.GetInt("version", -1), version);
  }  // server stopped, registry destroyed — only the data dir remains

  Generation second(data_dir);
  ASSERT_GT(second.port(), 0);
  util::Json graph = BodyOf(Http(second.port(), "GET", "/v1/kb/strict/graph"));
  EXPECT_EQ(graph.GetInt("num_facts", -1), 1);
  EXPECT_EQ(graph.GetInt("version", -1), version);
  ASSERT_TRUE(storage::RemoveDirRecursive(data_dir).ok());
}

TEST(DurabilityServer, SseResumeReplaysMissedEditScripts) {
  const std::string data_dir = ::testing::TempDir() + "/durable_sse";
  ASSERT_TRUE(storage::RemoveDirRecursive(data_dir).ok());
  Generation gen(data_dir);
  ASSERT_GT(gen.port(), 0);
  ASSERT_EQ(
      StatusOf(Http(gen.port(), "POST", "/v1/kb", "{\"name\":\"live\"}")),
      201);
  ASSERT_EQ(StatusOf(Http(gen.port(), "POST", "/v1/kb/live/graph",
                          "{\"text\":\"CR coach Chelsea [2000,2004] 0.9 "
                          ".\\n\"}")),
            200);  // version 1
  ASSERT_EQ(StatusOf(Http(gen.port(), "POST", "/v1/kb/live/edits",
                          "{\"script\":\"+ CR coach Napoli [2001,2003] 0.6 "
                          ".\\n\"}")),
            200);  // version 2
  ASSERT_EQ(StatusOf(Http(gen.port(), "POST", "/v1/kb/live/edits",
                          "{\"script\":\"+ CR coach Bari [2006,2008] 0.5 "
                          ".\\n\"}")),
            200);  // version 3

  // A client that saw version 1 reconnects: versions 2 and 3 come back as
  // edit-script events (in order, id = version), then the live snapshot.
  const std::string resumed =
      Http(gen.port(), "GET", "/v1/kb/live/subscribe?max_events=3", "",
           "Last-Event-ID: 1\r\n");
  EXPECT_EQ(CountOccurrences(resumed, "event: edit"), 2u) << resumed;
  EXPECT_EQ(CountOccurrences(resumed, "event: snapshot"), 1u) << resumed;
  const size_t first_edit = resumed.find("id: 2");
  const size_t second_edit = resumed.find("id: 3");
  ASSERT_NE(first_edit, std::string::npos) << resumed;
  ASSERT_NE(second_edit, std::string::npos) << resumed;
  EXPECT_LT(first_edit, second_edit);
  EXPECT_NE(resumed.find("+ CR coach Napoli [2001,2003] 0.6 ."),
            std::string::npos)
      << resumed;
  EXPECT_NE(resumed.find("+ CR coach Bari [2006,2008] 0.5 ."),
            std::string::npos)
      << resumed;

  // A current client (Last-Event-ID == head) gets no stale replay; the
  // one event it reads is produced by the next write.
  // A resume from before a graph replacement cannot be served as scripts:
  // replacing the graph invalidates the edit log tail, so the client gets
  // a plain snapshot resync instead.
  ASSERT_EQ(StatusOf(Http(gen.port(), "POST", "/v1/kb/live/graph",
                          "{\"text\":\"CR coach Lazio [2005,2007] 0.4 "
                          ".\\n\"}")),
            200);  // version 4, edit tail reset
  const std::string resynced =
      Http(gen.port(), "GET", "/v1/kb/live/subscribe?max_events=1", "",
           "Last-Event-ID: 2\r\n");
  EXPECT_EQ(CountOccurrences(resynced, "event: edit"), 0u) << resynced;
  EXPECT_EQ(CountOccurrences(resynced, "event: snapshot"), 1u) << resynced;
  EXPECT_NE(resynced.find("id: 4"), std::string::npos) << resynced;

  // Garbage in the header is a client bug, answered as such.
  EXPECT_EQ(StatusOf(Http(gen.port(), "GET", "/v1/kb/live/subscribe", "",
                          "Last-Event-ID: banana\r\n")),
            400);
  ASSERT_TRUE(storage::RemoveDirRecursive(data_dir).ok());
}

TEST(DurabilityServer, OversizedBodiesGet413) {
  const std::string data_dir = ::testing::TempDir() + "/durable_413";
  ASSERT_TRUE(storage::RemoveDirRecursive(data_dir).ok());
  Generation gen(data_dir);  // max_body_bytes = 4096
  ASSERT_GT(gen.port(), 0);

  // Content-Length over the cap: refused up front, body never buffered.
  const std::string big(8192, 'x');
  const std::string declared =
      Http(gen.port(), "POST", "/v1/kb/default/graph", big);
  EXPECT_EQ(StatusOf(declared), 413) << declared;
  util::Json body = BodyOf(declared);
  const util::Json* error = body.Find("error");
  ASSERT_NE(error, nullptr) << declared;
  EXPECT_EQ(error->GetString("code", ""), "PayloadTooLarge");
  EXPECT_NE(error->GetString("message", "").find("4096"), std::string::npos);

  // Chunked upload crossing the cap mid-stream: same answer, even though
  // no Content-Length ever declared the size.
  std::string chunked =
      "POST /v1/kb/default/graph HTTP/1.1\r\nHost: t\r\n"
      "Transfer-Encoding: chunked\r\n\r\n";
  for (int i = 0; i < 3; ++i) {
    chunked += StringPrintf("%zx\r\n", big.size());
    chunked += big;
    chunked += "\r\n";
  }
  chunked += "0\r\n\r\n";
  const std::string streamed = RawRequest(gen.port(), chunked);
  EXPECT_EQ(StatusOf(streamed), 413) << streamed.substr(0, 200);
  EXPECT_EQ(BodyOf(streamed).Find("error")->GetString("code", ""),
            "PayloadTooLarge");

  // An in-bounds request on the same server still works.
  EXPECT_EQ(StatusOf(Http(gen.port(), "POST", "/v1/kb/default/graph",
                          "{\"text\":\"a p b [1,2] 0.9 .\\n\"}")),
            200);
  ASSERT_TRUE(storage::RemoveDirRecursive(data_dir).ok());
}

TEST(DurabilityServer, OversizedHeadersGet431) {
  const std::string data_dir = ::testing::TempDir() + "/durable_431";
  ASSERT_TRUE(storage::RemoveDirRecursive(data_dir).ok());
  Generation gen(data_dir);
  ASSERT_GT(gen.port(), 0);

  // Headers alone over the header cap (64 KiB default): refused as a
  // header problem (431), not blamed on a body that was never sent.
  const std::string response = RawRequest(
      gen.port(), "GET /v1/kb HTTP/1.1\r\nHost: t\r\nX-Big: " +
                      std::string(70000, 'x') +
                      "\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(StatusOf(response), 431) << response.substr(0, 200);
  util::Json body = BodyOf(response);
  const util::Json* error = body.Find("error");
  ASSERT_NE(error, nullptr) << response;
  EXPECT_EQ(error->GetString("code", ""), "HeadersTooLarge");
  EXPECT_NE(error->GetString("message", "").find("headers"),
            std::string::npos);
  ASSERT_TRUE(storage::RemoveDirRecursive(data_dir).ok());
}

TEST(DurabilityServer, ResumeAheadOfServerGetsImmediateSnapshot) {
  const std::string data_dir = ::testing::TempDir() + "/durable_ahead";
  ASSERT_TRUE(storage::RemoveDirRecursive(data_dir).ok());
  Generation gen(data_dir);
  ASSERT_GT(gen.port(), 0);
  ASSERT_EQ(StatusOf(Http(gen.port(), "POST", "/v1/kb/default/graph",
                          "{\"text\":\"a p b [1,2] 0.9 .\\n\"}")),
            200);  // version 1

  // A client resuming from a version this server never published can only
  // mean the server lost state (e.g. a restart under --fsync never). On
  // an idle KB no publish may ever arrive, so the stream must send the
  // current snapshot immediately as the resync point instead of leaving
  // the client on stale state indefinitely.
  const std::string response =
      Http(gen.port(), "GET", "/v1/kb/default/subscribe?max_events=1", "",
           "Last-Event-ID: 999\r\n");
  EXPECT_EQ(CountOccurrences(response, "event: edit"), 0u) << response;
  EXPECT_EQ(CountOccurrences(response, "event: snapshot"), 1u) << response;
  EXPECT_NE(response.find("id: 1"), std::string::npos) << response;
  ASSERT_TRUE(storage::RemoveDirRecursive(data_dir).ok());
}

}  // namespace
}  // namespace server
}  // namespace tecore
