#include "api/registry.h"

#include <algorithm>
#include <cctype>

#include "obs/metrics.h"
#include "storage/fs.h"
#include "util/string_util.h"

namespace tecore {
namespace api {

namespace {

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
}

/// Keep `tecore_kb_facts{kb=…}` and `tecore_kb_version{kb=…}` tracking
/// this engine: seeded from the current snapshot (recovery included),
/// then refreshed on the writer thread at every publish. The listener
/// stays registered for the engine's lifetime — it dies with the KB.
void InstallKbGauges(const std::string& name, Engine* engine) {
  obs::Registry* metrics = obs::Registry::Default();
  auto facts = metrics->GetGauge("tecore_kb_facts", {{"kb", name}});
  auto version = metrics->GetGauge("tecore_kb_version", {{"kb", name}});
  // Register the subscriber gauge too, so the series scrapes as 0 from
  // birth instead of appearing on first subscribe.
  metrics->GetGauge("tecore_kb_sse_subscribers", {{"kb", name}});
  const auto update = [facts,
                       version](std::shared_ptr<const Snapshot> snap) {
    if (snap == nullptr) return;  // KB closing
    facts->Set(snap->has_graph()
                   ? static_cast<int64_t>(snap->graph->NumLiveFacts())
                   : 0);
    version->Set(static_cast<int64_t>(snap->version));
  };
  update(engine->snapshot());
  engine->AddPublishListener(update);
}

/// Forget a deleted KB's series; a recreated namesake starts fresh.
void RemoveKbSeries(const std::string& name) {
  obs::Registry* metrics = obs::Registry::Default();
  metrics->RemoveLabeled("tecore_kb_facts", "kb", name);
  metrics->RemoveLabeled("tecore_kb_version", "kb", name);
  metrics->RemoveLabeled("tecore_kb_sse_subscribers", "kb", name);
}

}  // namespace

EngineRegistry::EngineRegistry() : EngineRegistry(Options()) {}

EngineRegistry::EngineRegistry(Options options)
    : options_(std::move(options)) {}

std::shared_ptr<util::ThreadPool> EngineRegistry::pool() const {
  util::MutexLock lock(pool_mutex_);
  if (pool_ == nullptr) {
    // Created on first use, with at least 6 executors: neither the
    // constructing thread nor the server's acceptor drains the queue, and
    // every streaming subscriber parks on a worker for its connection's
    // lifetime — the floor keeps a subscriber from starving the writes
    // it is watching for.
    pool_ = std::make_shared<util::ThreadPool>(
        std::max(6, util::ResolveThreadCount(options_.num_threads)));
  }
  return pool_;
}

Status EngineRegistry::ValidateName(std::string_view name) {
  if (name.empty() || name.size() > 64) {
    return Status::InvalidArgument(
        "kb name must be 1..64 characters of [A-Za-z0-9_-]");
  }
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) {
    return Status::InvalidArgument(
        "kb name must start with a letter or digit");
  }
  for (char c : name) {
    if (!IsNameChar(c)) {
      return Status::InvalidArgument(StringPrintf(
          "kb name contains invalid character '%c' (allowed: [A-Za-z0-9_-])",
          c));
    }
  }
  return Status::OK();
}

std::string EngineRegistry::KbDir(const std::string& name) const {
  if (options_.data_dir.empty()) return std::string();
  return storage::JoinPath(storage::JoinPath(options_.data_dir, "kbs"), name);
}

Result<std::shared_ptr<Engine>> EngineRegistry::Create(
    const std::string& name) {
  TECORE_RETURN_NOT_OK(ValidateName(name));
  {
    // Claim the name before touching the filesystem: a concurrent Delete
    // may still be unlinking this directory, and opening storage into it
    // would attach a WAL whose files are about to vanish (acknowledged
    // writes into unlinked inodes — lost on restart). Waiting until the
    // name is neither registered nor mid-lifecycle closes that race and
    // keeps two racing Creates from ever holding the same wal.log.
    util::MutexLock lock(mutex_);
    while (lifecycle_busy_.count(name) != 0) lifecycle_cv_.Wait(mutex_);
    if (engines_.count(name) != 0) {
      return Status::AlreadyExists(
          StringPrintf("kb '%s' already exists", name.c_str()));
    }
    lifecycle_busy_.insert(name);
  }
  auto engine = std::make_shared<Engine>(options_.engine);
  Status status = Status::OK();
  if (!options_.data_dir.empty()) {
    // Open storage before registering the name: a failed open must not
    // leave a registered-but-undurable KB. The name grammar
    // ([A-Za-z0-9][A-Za-z0-9_-]*) keeps the directory name filesystem-safe.
    auto storage = storage::KbStorage::Open(KbDir(name), options_.storage);
    status = storage.ok()
                 ? engine->AttachStorage(std::move(storage).value())
                 : storage.status();
  }
  if (status.ok()) InstallKbGauges(name, engine.get());
  util::MutexLock lock(mutex_);
  lifecycle_busy_.erase(name);
  lifecycle_cv_.NotifyAll();
  if (!status.ok()) return status;
  auto [it, inserted] = engines_.emplace(name, std::move(engine));
  (void)inserted;  // the reservation made the name unclaimable meanwhile
  return it->second;
}

Result<std::vector<std::string>> EngineRegistry::RecoverKbs() {
  std::vector<std::string> recovered;
  if (options_.data_dir.empty()) return recovered;
  const std::string kbs_dir =
      storage::JoinPath(options_.data_dir, "kbs");
  if (!storage::IsDirectory(kbs_dir)) return recovered;  // fresh data dir
  TECORE_ASSIGN_OR_RETURN(names, storage::ListDir(kbs_dir));
  for (const std::string& name : names) {
    if (!storage::IsDirectory(storage::JoinPath(kbs_dir, name))) continue;
    if (!ValidateName(name).ok()) continue;  // not one of ours
    auto engine = Create(name);
    if (!engine.ok()) {
      return Status::IoError(StringPrintf(
          "recovering kb '%s': %s", name.c_str(),
          engine.status().ToString().c_str()));
    }
    recovered.push_back(name);
  }
  return recovered;
}

Result<std::shared_ptr<Engine>> EngineRegistry::Get(
    const std::string& name) const {
  util::MutexLock lock(mutex_);
  auto it = engines_.find(name);
  if (it == engines_.end()) {
    return Status::NotFound(StringPrintf("no such kb: '%s'", name.c_str()));
  }
  return it->second;
}

Status EngineRegistry::Delete(const std::string& name) {
  std::shared_ptr<Engine> removed;
  {
    util::MutexLock lock(mutex_);
    // Wait out any in-flight Create/Delete of this name (see Create for
    // why the lifecycle is serialized per name).
    while (lifecycle_busy_.count(name) != 0) lifecycle_cv_.Wait(mutex_);
    auto it = engines_.find(name);
    if (it == engines_.end()) {
      return Status::NotFound(StringPrintf("no such kb: '%s'", name.c_str()));
    }
    removed = std::move(it->second);
    engines_.erase(it);
    // Keep the name reserved until Destroy completes, so a concurrent
    // Create cannot recreate the directory while it is being unlinked.
    lifecycle_busy_.insert(name);
  }
  // Outside the registry lock: CloseForListeners takes the engine's
  // writer lock (it may wait on an in-flight solve) and calls observers.
  removed->CloseForListeners();
  // Flush + detach before unlinking, so in-flight holders of the engine
  // keep working (in-memory, no longer logging to soon-to-vanish files).
  removed->DetachStorage();
  const std::string dir = KbDir(name);
  Status status = Status::OK();
  if (!dir.empty()) {
    status = storage::KbStorage::Destroy(dir);
  }
  RemoveKbSeries(name);
  util::MutexLock lock(mutex_);
  lifecycle_busy_.erase(name);
  lifecycle_cv_.NotifyAll();
  return status;
}

std::vector<EngineRegistry::KbInfo> EngineRegistry::List() const {
  std::vector<KbInfo> out;
  std::vector<std::shared_ptr<Engine>> engines;
  {
    util::MutexLock lock(mutex_);
    out.reserve(engines_.size());
    engines.reserve(engines_.size());
    for (const auto& [name, engine] : engines_) {
      out.push_back({name, nullptr});
      engines.push_back(engine);
    }
  }
  // Snapshots are grabbed outside the registry lock — per-KB atomic, and
  // a concurrent Delete cannot invalidate the shared_ptrs we hold.
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].snapshot = engines[i]->snapshot();
  }
  return out;  // std::map iteration: already sorted by name
}

size_t EngineRegistry::size() const {
  util::MutexLock lock(mutex_);
  return engines_.size();
}

}  // namespace api
}  // namespace tecore
