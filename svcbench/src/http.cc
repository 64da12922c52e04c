#include "http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace svcbench {

namespace {

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
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

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Value of header `name` (ASCII case-insensitive) in `head`, or -1.
long long HeaderNumber(const std::string& head, const char* name) {
  const size_t len = std::strlen(name);
  size_t pos = head.find("\r\n");
  while (pos != std::string::npos && pos + 2 < head.size()) {
    const size_t line = pos + 2;
    if (head.size() - line > len && strncasecmp(head.c_str() + line, name,
                                                len) == 0 &&
        head[line + len] == ':') {
      return std::atoll(head.c_str() + line + len + 1);
    }
    pos = head.find("\r\n", line);
  }
  return -1;
}

}  // namespace

HttpConnection::HttpConnection(int port) : fd_(ConnectLoopback(port)) {}

HttpConnection::~HttpConnection() {
  if (fd_ >= 0) ::close(fd_);
}

bool HttpConnection::Fill() {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }
}

Response HttpConnection::Round(const char* method, const std::string& path,
                               const std::string& body,
                               const std::string& request_id) {
  Response out;
  if (fd_ < 0) return out;
  std::string request;
  request.reserve(160 + path.size() + body.size());
  request += method;
  request += ' ';
  request += path;
  request += " HTTP/1.1\r\nHost: svcbench\r\nX-Request-Id: ";
  request += request_id;
  request += "\r\nContent-Type: application/json\r\nContent-Length: ";
  request += std::to_string(body.size());
  request += "\r\n\r\n";
  request += body;
  out.sent = Clock::now();
  if (!SendAll(fd_, request)) return out;
  size_t header_end;
  while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    if (!Fill()) return out;
  }
  const std::string head = buffer_.substr(0, header_end + 2);
  int status = 0;
  if (std::sscanf(head.c_str(), "HTTP/1.1 %d", &status) != 1) return out;
  const long long length = HeaderNumber(head, "Content-Length");
  if (length < 0) return out;  // every non-stream response is framed
  const size_t total = header_end + 4 + static_cast<size_t>(length);
  while (buffer_.size() < total) {
    if (!Fill()) return out;
  }
  out.received = Clock::now();
  out.body = buffer_.substr(header_end + 4, static_cast<size_t>(length));
  buffer_.erase(0, total);
  out.status = status;
  return out;
}

SseStream::SseStream(int port, const std::string& path)
    : fd_(ConnectLoopback(port)) {
  if (fd_ < 0) return;
  // Short receive timeout: Next() polls its deadline between reads.
  timeval tv{};
  tv.tv_usec = 50 * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: svcbench\r\n"
                              "Accept: text/event-stream\r\n\r\n";
  if (!SendAll(fd_, request)) {
    ::close(fd_);
    fd_ = -1;
  }
}

SseStream::~SseStream() {
  if (fd_ >= 0) ::close(fd_);
}

int SseStream::Next(Event* event, TimePoint deadline) {
  if (fd_ < 0) return -1;
  for (;;) {
    if (!headers_done_) {
      const size_t end = buffer_.find("\r\n\r\n");
      if (end != std::string::npos) {
        if (buffer_.compare(0, 12, "HTTP/1.1 200") != 0) return -1;
        buffer_.erase(0, end + 4);
        headers_done_ = true;
      }
    }
    while (headers_done_) {
      const size_t end = buffer_.find("\n\n");
      if (end == std::string::npos) break;
      const std::string block = buffer_.substr(0, end + 1);
      buffer_.erase(0, end + 2);
      Event parsed;
      size_t pos = 0;
      while (pos < block.size()) {
        size_t eol = block.find('\n', pos);
        const std::string line = block.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.compare(0, 4, "id: ") == 0) {
          parsed.id = std::strtoull(line.c_str() + 4, nullptr, 10);
        } else if (line.compare(0, 7, "event: ") == 0) {
          parsed.type = line.substr(7);
        } else if (line.compare(0, 6, "data: ") == 0) {
          parsed.data = line.substr(6);
        }
      }
      if (parsed.type.empty()) continue;  // comment-only block
      parsed.received = last_read_;
      *event = std::move(parsed);
      return 1;
    }
    if (Clock::now() >= deadline) return 0;
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      last_read_ = Clock::now();
      buffer_.append(chunk, static_cast<size_t>(n));
    } else if (n == 0) {
      return -1;
    } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return -1;
    }
  }
}

}  // namespace svcbench
