#include "obs/access_log.h"

#include <atomic>
#include <chrono>
#include <ctime>

#include "util/string_util.h"

namespace tecore {
namespace obs {

namespace {

/// ISO-8601 UTC with microseconds, e.g. "2026-08-08T12:34:56.123456Z".
std::string IsoTimestampUtc() {
  const auto now = std::chrono::system_clock::now();
  const auto since_epoch = now.time_since_epoch();
  const auto micros =
      std::chrono::duration_cast<std::chrono::microseconds>(since_epoch)
          .count();
  const std::time_t seconds = static_cast<std::time_t>(micros / 1000000);
  const int sub_micros = static_cast<int>(micros % 1000000);
  std::tm tm_utc{};
  gmtime_r(&seconds, &tm_utc);
  char date[32];
  const size_t len =
      std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%S", &tm_utc);
  return std::string(date, len) + StringPrintf(".%06dZ", sub_micros);
}

/// Paths come from the wire; keep the log greppable by masking the few
/// characters that would break one-line logfmt parsing.
std::string Sanitize(const std::string& value) {
  std::string out = value;
  for (char& c : out) {
    if (c == ' ' || c == '\n' || c == '\r' || c == '\t' || c == '"') c = '_';
  }
  return out;
}

}  // namespace

Result<std::shared_ptr<AccessLog>> AccessLog::Open(const std::string& path) {
  if (path.empty()) {
    return std::shared_ptr<AccessLog>(new AccessLog(stderr, false));
  }
  FILE* file = std::fopen(path.c_str(), "ae");
  if (file == nullptr) {
    return Status::IoError(
        StringPrintf("cannot open access log '%s'", path.c_str()));
  }
  return std::shared_ptr<AccessLog>(new AccessLog(file, true));
}

AccessLog::AccessLog(FILE* file, bool owns_file)
    : file_(file), owns_file_(owns_file) {}

AccessLog::~AccessLog() {
  util::MutexLock lock(mutex_);
  if (owns_file_ && file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
}

void AccessLog::Write(const Entry& entry) {
  const std::string line = StringPrintf(
      "%s method=%s path=%s status=%d bytes=%zu micros=%llu request_id=%s\n",
      IsoTimestampUtc().c_str(), Sanitize(entry.method).c_str(),
      Sanitize(entry.path).c_str(), entry.status, entry.response_bytes,
      static_cast<unsigned long long>(entry.duration_micros),
      Sanitize(entry.request_id).c_str());
  util::MutexLock lock(mutex_);
  if (file_ == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
}

std::string GenerateRequestId() {
  // Stamped once at first use; the atomic sequence disambiguates within
  // the process, the boot timestamp across restarts.
  static const unsigned long long boot_micros = [] {
    const auto since_epoch = std::chrono::system_clock::now().time_since_epoch();
    return static_cast<unsigned long long>(
        std::chrono::duration_cast<std::chrono::microseconds>(since_epoch)
            .count());
  }();
  static std::atomic<uint64_t> sequence{0};
  const uint64_t seq = sequence.fetch_add(1, std::memory_order_relaxed) + 1;
  return StringPrintf("r-%llx-%llu", boot_micros,
                      static_cast<unsigned long long>(seq));
}

}  // namespace obs
}  // namespace tecore
