#ifndef TECORE_SERVER_HTTP_SERVER_H_
#define TECORE_SERVER_HTTP_SERVER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace tecore {
namespace server {

/// \brief One parsed HTTP request.
struct HttpRequest {
  std::string method;  ///< "GET", "POST", "DELETE", ...
  std::string path;    ///< decoded path, e.g. "/v1/complete"
  std::string query;   ///< raw query string, e.g. "prefix=coa&limit=5"
  std::string body;    ///< decoded body (chunked transfer-encoding is
                       ///< de-chunked before the handler sees it)
  /// All request headers in wire order (names as sent; use HeaderValue
  /// for case-insensitive lookup).
  std::vector<std::pair<std::string, std::string>> headers;

  /// \brief Value of a `key=value` query parameter (percent-decoded),
  /// or `fallback` when absent.
  std::string QueryParam(std::string_view key, std::string fallback) const;

  /// \brief First header with this name (ASCII case-insensitive), or
  /// `fallback` when absent.
  std::string HeaderValue(std::string_view name, std::string fallback) const;
};

/// \brief Handle for writing a long-lived response body incrementally
/// (server-sent events). Passed to HttpResponse::stream on the
/// connection worker after the response headers went out.
class ResponseStream {
 public:
  /// \brief Send raw body bytes. Returns false once the client is gone
  /// (send failed/timed out) or the server is stopping — the streamer
  /// must then return promptly.
  bool Write(std::string_view data);

  /// \brief True once Stop() was called; streamers poll this between
  /// blocking waits so shutdown is never gated on a client.
  bool stopping() const;

 private:
  friend class HttpServer;
  ResponseStream(int fd, const std::atomic<bool>* running)
      : fd_(fd), running_(running) {}

  int fd_;
  const std::atomic<bool>* running_;
  bool broken_ = false;
};

/// \brief Response returned by a handler.
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  /// Extra response headers (e.g. `Allow` on a 405).
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  /// When set, this response is a long-lived stream: the server sends
  /// the status line, content_type and extra headers with
  /// `Connection: close` and no Content-Length, then invokes `stream`
  /// on the connection worker to produce the body. The connection
  /// closes when the callback returns; `body` is ignored. Streamers
  /// must bound their blocking waits and honor ResponseStream::stopping.
  std::function<void(ResponseStream*)> stream;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// \brief Minimal embedded HTTP/1.1 server: one acceptor thread that
/// hands connections to a util::ThreadPool given in Options (the
/// multi-tenant registry shares one pool across every KB). Supports
/// keep-alive, Content-Length and chunked request bodies, long-lived
/// streaming responses (SSE) and clean shutdown; TLS is an explicit
/// non-goal of this layer (ROADMAP).
/// Loopback-oriented: bind it to 127.0.0.1 unless you know what you are
/// doing.
class HttpServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;          ///< 0 = pick an ephemeral port (see port()).
    int backlog = 64;
    /// Hard cap on one request body (Content-Length or decoded chunked).
    /// Oversized requests get 413 with the uniform error envelope.
    size_t max_body_bytes = 16u << 20;
    /// Hard cap on the request line + headers of one request. Oversized
    /// headers get 431 (they are a different client bug than an oversized
    /// body, and arrive before any body byte is read).
    size_t max_header_bytes = 64u << 10;
    /// Per-socket receive/send timeout; doubles as the keep-alive idle
    /// timeout, bounds how long a stalled streaming client can occupy a
    /// worker, and bounds worst-case Stop() latency.
    int recv_timeout_ms = 5000;
    /// Externally-owned worker pool (e.g. api::EngineRegistry::pool());
    /// required. The server Submit()s connections to it but never
    /// destroys it; the pool must outlive the server.
    std::shared_ptr<util::ThreadPool> pool;
  };

  HttpServer(Options options, HttpHandler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// \brief Bind, listen and start serving. Returns the bound port on
  /// success (equal to Options::port unless that was 0), and
  /// InvalidArgument when Options::pool is null.
  Result<int> Start() TECORE_EXCLUDES(lifecycle_mutex_);

  /// \brief The bound port (valid after a successful Start()).
  int port() const TECORE_EXCLUDES(lifecycle_mutex_) {
    util::MutexLock lock(lifecycle_mutex_);
    return port_;
  }

  /// \brief Stop accepting, drain in-flight connections, join workers.
  /// Idempotent and safe to race with itself and with the destructor
  /// (concurrent callers serialize on the lifecycle mutex; losers return
  /// once the winner has fully stopped). Streaming responses observe
  /// `ResponseStream::stopping` and end within their poll interval.
  void Stop() TECORE_EXCLUDES(lifecycle_mutex_);

 private:
  /// Why ReadRequest gave up on a connection when the bytes themselves
  /// were readable. These are the cases worth answering before closing
  /// (as opposed to EOF/timeout/garbage, where silence is correct).
  enum class ReadError {
    kNone,         ///< EOF, timeout, or malformed framing — close silently
    kUnsupported,  ///< Transfer-Encoding we must not guess at → 501
    kConflictingFraming,  ///< Content-Length with Transfer-Encoding, or
                          ///< Content-Length values that disagree → 400
    kMalformedField,  ///< header line without a colon, or whose name is
                      ///< not a token (obs-fold, space before ':') → 400
    kTooLarge,     ///< declared or accumulated body over max_body_bytes → 413
    kHeadersTooLarge,  ///< headers alone over max_header_bytes → 431
  };

  /// Runs on the acceptor thread with its *own copies* of the listen fd
  /// and pool handle, so it never touches lifecycle_mutex_-guarded fields
  /// (Stop() may be rewriting them while we are mid-accept).
  void AcceptLoop(int listen_fd, std::shared_ptr<util::ThreadPool> pool);
  void ServeConnection(int fd);
  /// Read one request off `fd`; false on EOF/timeout/malformed framing.
  /// Sets `*error` (and returns false) when the connection deserves an
  /// error response before closing: a Transfer-Encoding we must not guess
  /// at (501 — answering on guessed framing would desync the connection),
  /// framing that two headers dispute (400, RFC 9112 §6.3), a malformed
  /// header field line (400, RFC 9112 §5.1-5.2 and §2.2), a body over
  /// Options::max_body_bytes (413, for both Content-Length and chunked
  /// uploads), or headers over Options::max_header_bytes (431).
  bool ReadRequest(int fd, HttpRequest* request, bool* keep_alive,
                   std::string* buffer, ReadError* error);
  /// Decode a chunked body starting at buffer[body_start] into
  /// request->body, receiving more bytes as needed; on success erases
  /// everything consumed from `buffer` (keeping pipelined bytes).
  bool ReadChunkedBody(int fd, std::string* buffer, size_t body_start,
                       HttpRequest* request, ReadError* error);
  bool FillBuffer(int fd, std::string* buffer);
  void WriteResponse(int fd, const HttpResponse& response, bool keep_alive);

  Options options_;
  HttpHandler handler_;
  std::atomic<bool> running_{false};

  /// Serializes Start/Stop/port(). Before this existed, two racing Stop()
  /// calls were a real data race: the exchange(false) loser read
  /// listen_fd_ and acceptor_.joinable() while the winner was join()ing
  /// the thread object and close()ing the fd.
  mutable util::Mutex lifecycle_mutex_;
  int listen_fd_ TECORE_GUARDED_BY(lifecycle_mutex_) = -1;
  int port_ TECORE_GUARDED_BY(lifecycle_mutex_) = 0;
  std::thread acceptor_ TECORE_GUARDED_BY(lifecycle_mutex_);

  /// Connections this server accepted that have not finished serving
  /// (queued or running). Stop() drains on this count — not on the pool,
  /// which may be shared with other servers whose streams outlive us.
  util::Mutex inflight_mutex_;
  util::CondVar inflight_cv_;
  size_t inflight_ TECORE_GUARDED_BY(inflight_mutex_) = 0;
};

}  // namespace server
}  // namespace tecore

#endif  // TECORE_SERVER_HTTP_SERVER_H_
