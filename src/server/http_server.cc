#include "server/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>

#include "util/string_util.h"

namespace tecore {
namespace server {

namespace {

/// RFC 9110 §5.6.2: a field name is a non-empty run of `tchar`.
bool IsToken(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) &&
        std::string_view("!#$%&'*+-.^_`|~").find(c) == std::string_view::npos) {
      return false;
    }
  }
  return true;
}

/// Percent-decode a URL component ('+' is a space in query strings).
std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out += ' ';
    } else if (s[i] == '%' && i + 2 < s.size() &&
               std::isxdigit(static_cast<unsigned char>(s[i + 1])) &&
               std::isxdigit(static_cast<unsigned char>(s[i + 2]))) {
      auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        return c - 'A' + 10;
      };
      out += static_cast<char>((hex(s[i + 1]) << 4) | hex(s[i + 2]));
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 400: return "Bad Request";
    case 401: return "Unauthorized";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

/// A refusal in the uniform error envelope, for requests rejected before
/// they reach a handler.
HttpResponse ErrorReply(int status, const char* code,
                        const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.body =
      StringPrintf("{\"error\":{\"code\":\"%s\",\"message\":\"%s\"}}\n",
                   code, message.c_str());
  return response;
}

bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR)) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

std::string HttpRequest::QueryParam(std::string_view key,
                                    std::string fallback) const {
  std::string_view rest = query;
  while (!rest.empty()) {
    const size_t amp = rest.find('&');
    std::string_view pair = rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view()
                                         : rest.substr(amp + 1);
    const size_t eq = pair.find('=');
    std::string_view k = pair.substr(0, eq);
    if (UrlDecode(k) == key) {
      return eq == std::string_view::npos
                 ? std::string()
                 : UrlDecode(pair.substr(eq + 1));
    }
  }
  return fallback;
}

std::string HttpRequest::HeaderValue(std::string_view name,
                                     std::string fallback) const {
  for (const auto& [header, value] : headers) {
    if (AsciiIEquals(header, name)) return value;
  }
  return fallback;
}

bool ResponseStream::Write(std::string_view data) {
  if (broken_ || !running_->load(std::memory_order_acquire)) return false;
  if (!SendAll(fd_, data)) {
    broken_ = true;  // client gone (or stalled past the send timeout)
    return false;
  }
  return true;
}

bool ResponseStream::stopping() const {
  return broken_ || !running_->load(std::memory_order_acquire);
}

HttpServer::HttpServer(Options options, HttpHandler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {}

HttpServer::~HttpServer() { Stop(); }

Result<int> HttpServer::Start() {
  if (options_.pool == nullptr) {
    return Status::InvalidArgument("HttpServer needs a connection pool");
  }
  util::MutexLock lock(lifecycle_mutex_);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(StringPrintf("socket: %s", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument(
        StringPrintf("bad host '%s' (IPv4 literal expected)",
                     options_.host.c_str()));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Status::IoError(StringPrintf(
        "bind %s:%d: %s", options_.host.c_str(), options_.port,
        std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, options_.backlog) < 0) {
    Status st =
        Status::IoError(StringPrintf("listen: %s", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  running_.store(true, std::memory_order_release);
  // The acceptor gets copies of the fd and pool handle: it must never
  // read lifecycle-guarded fields, which Stop() rewrites while the loop
  // is still blocked in accept().
  acceptor_ = std::thread(
      [this, fd = listen_fd_, pool = options_.pool] { AcceptLoop(fd, pool); });
  return port_;
}

void HttpServer::Stop() {
  // Serializing the whole body makes concurrent Stop() calls (e.g. a
  // signal handler thread racing the destructor) safe: the loser blocks
  // until the winner has joined the acceptor and closed the listener,
  // instead of reading both mid-teardown.
  util::MutexLock lock(lifecycle_mutex_);
  if (!running_.exchange(false)) {
    // Never started or already stopped; still reap a bound-but-unserved
    // listener from a failed Start().
    if (listen_fd_ >= 0 && !acceptor_.joinable()) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return;
  }
  // Wake the acceptor: shutdown() makes a blocking accept() return.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // Drain this server's queued + in-flight connections (keep-alive
  // connections exit at their next recv timeout; streaming responses
  // observe stopping() at their next poll tick). The wait is on our own
  // connection count, never on the pool: a shared pool may be carrying
  // another server's long-lived streams, which must not gate our Stop.
  {
    util::MutexLock inflight_lock(inflight_mutex_);
    while (inflight_ != 0) inflight_cv_.Wait(inflight_mutex_);
  }
}

void HttpServer::AcceptLoop(int listen_fd,
                            std::shared_ptr<util::ThreadPool> pool) {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      // Transient conditions must not kill the acceptor: a client
      // aborting mid-handshake (ECONNABORTED) or fd exhaustion
      // (EMFILE/ENFILE, relieved when workers close connections) are
      // retried; only a shut-down listener ends the loop.
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      break;  // listener shut down
    }
    timeval tv{};
    tv.tv_sec = options_.recv_timeout_ms / 1000;
    tv.tv_usec = (options_.recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    // Bound sends too: a streaming subscriber that stops reading must not
    // pin a worker past the timeout.
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    {
      util::MutexLock lock(inflight_mutex_);
      ++inflight_;
    }
    pool->Submit([this, fd] {
      ServeConnection(fd);
      util::MutexLock lock(inflight_mutex_);
      if (--inflight_ == 0) inflight_cv_.NotifyAll();
    });
  }
}

void HttpServer::ServeConnection(int fd) {
  std::string buffer;
  while (running_.load(std::memory_order_acquire)) {
    HttpRequest request;
    bool keep_alive = true;
    ReadError error = ReadError::kNone;
    if (!ReadRequest(fd, &request, &keep_alive, &buffer, &error)) {
      // Every error reply closes the connection: after refusing a body we
      // never read, or one whose length is in dispute, the stream
      // position is unknowable.
      HttpResponse response;
      switch (error) {
        case ReadError::kNone:
          break;
        case ReadError::kUnsupported:
          response = ErrorReply(501, "Unsupported",
                                "unsupported Transfer-Encoding; send a "
                                "Content-Length or chunked body");
          break;
        case ReadError::kConflictingFraming:
          response = ErrorReply(400, "InvalidArgument",
                                "conflicting message framing: Content-Length "
                                "with Transfer-Encoding, or Content-Length "
                                "values that disagree");
          break;
        case ReadError::kMalformedField:
          response = ErrorReply(400, "InvalidArgument",
                                "malformed header field line: a field name "
                                "is a token directly followed by ':'");
          break;
        case ReadError::kTooLarge:
          response = ErrorReply(
              413, "PayloadTooLarge",
              StringPrintf("request body exceeds the %zu-byte limit",
                           options_.max_body_bytes));
          break;
        case ReadError::kHeadersTooLarge:
          response = ErrorReply(
              431, "HeadersTooLarge",
              StringPrintf("request headers exceed the %zu-byte limit",
                           options_.max_header_bytes));
          break;
      }
      if (error != ReadError::kNone) {
        WriteResponse(fd, response, /*keep_alive=*/false);
      }
      break;
    }
    HttpResponse response = handler_(request);
    if (response.stream) {
      // Long-lived stream: headers out (unframed body, so the connection
      // cannot be reused), then hand the socket to the streamer.
      WriteResponse(fd, response, /*keep_alive=*/false);
      ResponseStream stream(fd, &running_);
      response.stream(&stream);
      break;
    }
    WriteResponse(fd, response, keep_alive);
    if (!keep_alive) break;
  }
  ::close(fd);
}

bool HttpServer::FillBuffer(int fd, std::string* buffer) {
  char chunk[4096];
  const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
  if (n <= 0) return false;  // EOF, timeout or error
  buffer->append(chunk, static_cast<size_t>(n));
  return true;
}

bool HttpServer::ReadRequest(int fd, HttpRequest* request, bool* keep_alive,
                             std::string* buffer, ReadError* error) {
  // Accumulate until the header terminator.
  size_t header_end;
  while ((header_end = buffer->find("\r\n\r\n")) == std::string::npos) {
    // Everything before the blank line is request line + headers: the
    // header cap applies, not the (much larger) body cap.
    if (buffer->size() > options_.max_header_bytes) {
      *error = ReadError::kHeadersTooLarge;
      return false;
    }
    if (!FillBuffer(fd, buffer)) return false;
  }
  std::string_view head(*buffer);
  head = head.substr(0, header_end);

  // Request line: METHOD SP target SP version.
  const size_t line_end = head.find("\r\n");
  std::string_view request_line = head.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 = request_line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) return false;
  request->method = std::string(request_line.substr(0, sp1));
  std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string_view http_version = request_line.substr(sp2 + 1);
  const size_t qmark = target.find('?');
  request->path = UrlDecode(target.substr(0, qmark));
  request->query = qmark == std::string_view::npos
                       ? std::string()
                       : std::string(target.substr(qmark + 1));

  // Headers: all retained on the request; framing-relevant ones
  // (Content-Length, Transfer-Encoding, Connection) interpreted here.
  std::optional<size_t> content_length;
  bool chunked = false;
  bool conflicting = false;
  *keep_alive = !AsciiIEquals(http_version, "HTTP/1.0");
  std::string_view headers =
      line_end == std::string_view::npos ? std::string_view()
                                         : head.substr(line_end + 2);
  while (!headers.empty()) {
    const size_t eol = headers.find("\r\n");
    std::string_view line = headers.substr(0, eol);
    headers = eol == std::string_view::npos ? std::string_view()
                                            : headers.substr(eol + 2);
    // A line without a colon, or whose name is not a token (whitespace
    // before the colon, or a leading SP/HTAB folding it onto the previous
    // line), is refused, never trimmed into a field: a proxy that reads it
    // differently would see a different Content-Length or
    // Transfer-Encoding, hence a different request boundary.
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || !IsToken(line.substr(0, colon))) {
      *error = ReadError::kMalformedField;
      return false;
    }
    std::string_view name = line.substr(0, colon);
    std::string_view value = Trim(line.substr(colon + 1));
    request->headers.emplace_back(std::string(name), std::string(value));
    if (AsciiIEquals(name, "content-length")) {
      int64_t parsed = 0;
      if (!ParseInt64(value, &parsed) || parsed < 0) return false;
      if (static_cast<size_t>(parsed) > options_.max_body_bytes) {
        // Refuse up front from the declared size — never buffer a body
        // we already know is over the limit.
        *error = ReadError::kTooLarge;
        return false;
      }
      // RFC 9112 §6.3: Content-Length values that disagree are invalid
      // framing; repeats of one value are harmless.
      if (content_length.has_value() &&
          *content_length != static_cast<size_t>(parsed)) {
        conflicting = true;
      }
      content_length = static_cast<size_t>(parsed);
    } else if (AsciiIEquals(name, "connection")) {
      if (AsciiIEquals(value, "close")) *keep_alive = false;
      if (AsciiIEquals(value, "keep-alive")) *keep_alive = true;
    } else if (AsciiIEquals(name, "transfer-encoding")) {
      // `chunked` alone is decoded below; any other coding (or stack of
      // codings) is framing we must not guess at — answer 501 rather
      // than desyncing every later request on this connection.
      if (AsciiIEquals(value, "chunked")) {
        chunked = true;
      } else {
        *error = ReadError::kUnsupported;
        return false;
      }
    }
  }

  // A message framed two ways is refused, never resolved in favor of one
  // header: a proxy in front that honors the other would see a different
  // request boundary, and the bytes past ours would smuggle a request.
  if (conflicting || (chunked && content_length.has_value())) {
    *error = ReadError::kConflictingFraming;
    return false;
  }
  const size_t body_start = header_end + 4;
  if (chunked) {
    return ReadChunkedBody(fd, buffer, body_start, request, error);
  }

  // Content-Length body (none without the header).
  const size_t body_size = content_length.value_or(0);
  while (buffer->size() < body_start + body_size) {
    if (!FillBuffer(fd, buffer)) return false;
  }
  request->body = buffer->substr(body_start, body_size);
  // Keep any pipelined bytes for the next request on this connection.
  buffer->erase(0, body_start + body_size);
  return true;
}

bool HttpServer::ReadChunkedBody(int fd, std::string* buffer,
                                 size_t body_start, HttpRequest* request,
                                 ReadError* error) {
  // RFC 9112 §7.1: repeated `size-hex[;ext] CRLF data CRLF`, terminated
  // by a zero-size chunk and an (ignored) trailer section ending in a
  // blank line. The decoded body replaces the wire framing, so handlers
  // never see chunk boundaries and keep-alive framing stays in sync.
  request->body.clear();
  size_t pos = body_start;
  auto need_line = [&](size_t* eol) -> bool {
    while ((*eol = buffer->find("\r\n", pos)) == std::string::npos) {
      if (buffer->size() - pos > 1024) return false;  // absurd size line
      if (!FillBuffer(fd, buffer)) return false;
    }
    return true;
  };
  for (;;) {
    size_t eol;
    if (!need_line(&eol)) return false;
    std::string_view line(buffer->data() + pos, eol - pos);
    // Chunk extensions (";...") are legal and ignored.
    const size_t semi = line.find(';');
    std::string_view hex = Trim(line.substr(0, semi));
    if (hex.empty()) return false;
    size_t size = 0;
    for (char c : hex) {
      int digit;
      if (c >= '0' && c <= '9') {
        digit = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        digit = c - 'a' + 10;
      } else if (c >= 'A' && c <= 'F') {
        digit = c - 'A' + 10;
      } else {
        return false;
      }
      size = size * 16 + static_cast<size_t>(digit);
      if (size > options_.max_body_bytes) {
        *error = ReadError::kTooLarge;
        return false;
      }
    }
    pos = eol + 2;
    if (size == 0) break;
    if (request->body.size() + size > options_.max_body_bytes) {
      // Chunked uploads carry no declared total; the cap bites as the
      // decoded body accumulates past it.
      *error = ReadError::kTooLarge;
      return false;
    }
    while (buffer->size() < pos + size + 2) {
      if (!FillBuffer(fd, buffer)) return false;
    }
    request->body.append(*buffer, pos, size);
    if (buffer->compare(pos + size, 2, "\r\n") != 0) return false;
    pos += size + 2;
  }
  // Trailer section: header lines we ignore, up to the blank line.
  for (;;) {
    size_t eol;
    if (!need_line(&eol)) return false;
    const bool blank = eol == pos;
    pos = eol + 2;
    if (blank) break;
  }
  buffer->erase(0, pos);
  return true;
}

void HttpServer::WriteResponse(int fd, const HttpResponse& response,
                               bool keep_alive) {
  std::string out = StringPrintf(
      "HTTP/1.1 %d %s\r\n"
      "Content-Type: %s\r\n",
      response.status, ReasonPhrase(response.status),
      response.content_type.c_str());
  for (const auto& [name, value] : response.headers) {
    out += StringPrintf("%s: %s\r\n", name.c_str(), value.c_str());
  }
  if (response.stream) {
    // Unframed streaming body: no Content-Length, connection will close
    // when the streamer returns.
    out += "Connection: close\r\n\r\n";
    SendAll(fd, out);
    return;
  }
  out += StringPrintf(
      "Content-Length: %zu\r\n"
      "Connection: %s\r\n"
      "\r\n",
      response.body.size(), keep_alive ? "keep-alive" : "close");
  out += response.body;
  SendAll(fd, out);
}

}  // namespace server
}  // namespace tecore
