#include "target.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "server/routes.h"

namespace svcbench {

namespace tc = tecore;

double ReadPeakRssMb(int pid) {
  const std::string path =
      pid < 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

// ------------------------------------------------------------- process

bool ProcessTarget::Start(const std::string& data_dir) {
  Kill();
  const std::string out_path = log_dir_ + "/server.out";
  const std::string err_path = log_dir_ + "/server.err";
  std::remove(out_path.c_str());
  const std::string threads = std::to_string(threads_);
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    // Never outlive the benchmark, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int out = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err =
        ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (out < 0 || err < 0) ::_exit(127);
    ::dup2(out, STDOUT_FILENO);
    ::dup2(err, STDERR_FILENO);
    const char* argv[] = {binary_.c_str(), "--port",    "0",
                          "--data-dir",    data_dir.c_str(), "--fsync",
                          "always",        "--threads", threads.c_str(),
                          "--retain",      "8",       nullptr};
    ::execv(binary_.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);
  }
  pid_ = pid;
  // The server prints its listening line once recovery and binding are
  // done; boot time (including recovery) is the wait for that line.
  const auto deadline = Clock::now() + std::chrono::seconds(120);
  while (Clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    std::ifstream in(out_path);
    std::stringstream text;
    text << in.rdbuf();
    const std::string s = text.str();
    const size_t at = s.find("listening on http://");
    if (at != std::string::npos && s.find('\n', at) != std::string::npos) {
      const size_t colon = s.find(':', at + 20);
      port_ = std::atoi(s.c_str() + colon + 1);
      return port_ > 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Kill();
  return false;
}

void ProcessTarget::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

void ProcessTarget::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (Clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Kill();
}

double ProcessTarget::PeakRssMb() const { return ReadPeakRssMb(pid_); }

// ---------------------------------------------------------- in-process

bool InProcessTarget::Start(const std::string& data_dir) {
  Kill();
  tc::api::EngineRegistry::Options options;
  options.num_threads = threads_;
  options.data_dir = data_dir;
  options.storage.fsync = tc::storage::FsyncPolicy::kAlways;
  options.engine.retain_versions = 8;
  registry_ = std::make_unique<tc::api::EngineRegistry>(options);
  const TimePoint begin = Clock::now();
  auto recovered = registry_->RecoverKbs();
  last_recovery_ms_ = MicrosBetween(begin, Clock::now()) / 1000.0;
  if (!recovered.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 recovered.status().ToString().c_str());
    return false;
  }
  tc::server::HttpHandler inner =
      tc::server::MakeApiHandler(registry_.get(), {});
  SpanLog* spans = spans_;
  tc::server::HttpHandler traced =
      [inner = std::move(inner), spans](const tc::server::HttpRequest& r) {
        Span span;
        span.start = Clock::now();
        tc::server::HttpResponse response = inner(r);
        span.end = Clock::now();
        span.id = r.HeaderValue("X-Request-Id", "");
        span.name = "handler";
        span.status = response.status;
        spans->Add(std::move(span));
        return response;
      };
  tc::server::HttpServer::Options http_options;
  http_options.port = 0;
  http_options.pool = registry_->pool();
  http_ = std::make_unique<tc::server::HttpServer>(http_options,
                                                   std::move(traced));
  auto port = http_->Start();
  if (!port.ok()) return false;
  port_ = *port;
  return true;
}

void InProcessTarget::Kill() {
  if (http_ != nullptr) http_->Stop();
  http_.reset();
  registry_.reset();
}

double InProcessTarget::PeakRssMb() const { return ReadPeakRssMb(-1); }

}  // namespace svcbench
