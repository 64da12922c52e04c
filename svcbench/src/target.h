// The service under test: a spawned `tecore-server` process (end-to-end
// runs) or the same registry + HTTP server in this process with every
// handler call recorded as a span (traced runs).
#ifndef SVCBENCH_TARGET_H_
#define SVCBENCH_TARGET_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/registry.h"
#include "http.h"
#include "server/http_server.h"

namespace svcbench {

/// One timed interval. Client spans and server handler spans of the same
/// request share `id` (the `X-Request-Id` header), which is how a handler
/// span finds its parent.
struct Span {
  std::string id;
  std::string name;
  TimePoint start;
  TimePoint end;
  int status = 0;
  /// Client spans only: the KB addressed and the snapshot version the
  /// response came from (0 when not parsed).
  std::string kb;
  uint64_t version = 0;
};

/// Spans kept in memory for the whole run and written out at the end.
class SpanLog {
 public:
  void Add(Span span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(spans_);
  }

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
};

class Target {
 public:
  virtual ~Target() = default;
  /// Boot on `data_dir` (fresh, or left by Kill for a recovery) and wait
  /// until the service answers. False on failure.
  virtual bool Start(const std::string& data_dir) = 0;
  /// Crash stop: no shutdown path runs that a SIGKILL would skip.
  virtual void Kill() = 0;
  /// Clean stop.
  virtual void Stop() = 0;
  virtual int port() const = 0;
  /// Peak resident set of the serving process (VmHWM), in MiB.
  virtual double PeakRssMb() const = 0;
};

/// `tecore-server --port 0 --data-dir d --fsync always --threads n`.
class ProcessTarget : public Target {
 public:
  ProcessTarget(std::string binary, int threads, std::string log_dir)
      : binary_(std::move(binary)),
        threads_(threads),
        log_dir_(std::move(log_dir)) {}
  ~ProcessTarget() override { Kill(); }

  bool Start(const std::string& data_dir) override;
  void Kill() override;
  void Stop() override;
  int port() const override { return port_; }
  double PeakRssMb() const override;

 private:
  std::string binary_;
  int threads_;
  std::string log_dir_;
  int pid_ = -1;
  int port_ = 0;
};

/// The registry and HTTP server `tecore-server` builds, constructed here,
/// with `server::MakeApiHandler`'s handler wrapped in a span. Kill drops
/// every object without the clean-shutdown flush; the data directory is
/// then recovered exactly as a restarted process would.
class InProcessTarget : public Target {
 public:
  InProcessTarget(int threads, SpanLog* spans)
      : threads_(threads), spans_(spans) {}
  ~InProcessTarget() override { Kill(); }

  bool Start(const std::string& data_dir) override;
  void Kill() override;
  void Stop() override { Kill(); }
  int port() const override { return port_; }
  double PeakRssMb() const override;

  tecore::api::EngineRegistry* registry() const { return registry_.get(); }
  /// Wall time of the last Start's RecoverKbs, in milliseconds.
  double last_recovery_ms() const { return last_recovery_ms_; }

 private:
  int threads_;
  SpanLog* spans_;
  std::unique_ptr<tecore::api::EngineRegistry> registry_;
  std::unique_ptr<tecore::server::HttpServer> http_;
  int port_ = 0;
  double last_recovery_ms_ = 0.0;
};

/// VmHWM of `pid` ("self" when pid < 0) in MiB; 0 when unreadable.
double ReadPeakRssMb(int pid);

}  // namespace svcbench

#endif  // SVCBENCH_TARGET_H_
