// Loopback HTTP/1.1 client pieces of the service benchmark: one blocking
// keep-alive connection per role, and a server-sent-events reader.
#ifndef SVCBENCH_HTTP_H_
#define SVCBENCH_HTTP_H_

#include <chrono>
#include <cstdint>
#include <string>

namespace svcbench {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

/// Microseconds from `a` to `b` (negative when `b` is earlier).
inline double MicrosBetween(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Response {
  int status = 0;  ///< 0 = I/O failure
  std::string body;
  TimePoint sent;      ///< first request byte handed to the kernel
  TimePoint received;  ///< last response byte read
};

/// Keep-alive connection to 127.0.0.1:port. Every request carries the
/// given `X-Request-Id`, which the server echoes into its own spans.
class HttpConnection {
 public:
  explicit HttpConnection(int port);
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  bool ok() const { return fd_ >= 0; }

  Response Round(const char* method, const std::string& path,
                 const std::string& body, const std::string& request_id);

 private:
  bool Fill();

  int fd_ = -1;
  std::string buffer_;
};

/// One `GET /v1/kb/{kb}/subscribe` stream. Next() returns one event at a
/// time and gives up at `deadline`, so the owner can poll a stop flag.
class SseStream {
 public:
  struct Event {
    uint64_t id = 0;
    std::string type;
    std::string data;
    TimePoint received;
  };

  SseStream(int port, const std::string& path);
  ~SseStream();
  SseStream(const SseStream&) = delete;
  SseStream& operator=(const SseStream&) = delete;

  bool ok() const { return fd_ >= 0; }

  /// 1 = event filled, 0 = deadline passed, -1 = stream closed or broken.
  int Next(Event* event, TimePoint deadline);

 private:
  int fd_ = -1;
  bool headers_done_ = false;
  std::string buffer_;
  /// When the bytes now at the end of buffer_ arrived; events complete in
  /// one read share it.
  TimePoint last_read_;
};

}  // namespace svcbench

#endif  // SVCBENCH_HTTP_H_
