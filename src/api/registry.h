#ifndef TECORE_API_REGISTRY_H_
#define TECORE_API_REGISTRY_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "api/engine.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace tecore {
namespace api {

/// \brief Multi-tenant front door: N named `api::Engine` instances behind
/// one shared `util::ThreadPool`.
///
/// Each knowledge base is an independent Engine — its own graph, rules,
/// incremental state and snapshot chain — so tenants never observe each
/// other's versions or edits. The registry itself is a small synchronized
/// name table; all per-KB concurrency guarantees are the Engine's.
///
/// Lifecycle semantics:
///  * `Create` / `Delete` / `Get` are individually atomic (one mutex).
///    Storage open/teardown happens outside that mutex, but the name stays
///    reserved for the whole lifecycle step: a Create racing a Delete of
///    the same name waits until the old directory is fully unlinked rather
///    than attaching a fresh WAL to files mid-removal.
///  * `Get` hands out a shared_ptr: a KB deleted while a request is in
///    flight stays alive until the last holder drops it, so racing reads
///    see either NotFound or a fully self-consistent engine — never a
///    torn one.
///  * `Delete` retires the engine for publish observers
///    (`Engine::CloseForListeners`), so streaming subscribers get an
///    end-of-stream signal instead of waiting on a zombie.
///
/// The shared pool is the service-wide worker budget (HTTP connection
/// workers for every tenant); each request's parse, grounding and solve
/// run on the worker that serves it. One pool for N tenants is the
/// point: creating a KB must not spawn threads.
class EngineRegistry {
 public:
  struct Options {
    /// Executors in the shared pool (0 = auto, min 6 — see pool() for
    /// why the floor).
    int num_threads = 0;
    /// Defaults applied to every engine the registry creates.
    Engine::Options engine;
    /// Root of the durable store. Empty = in-memory registry (the
    /// default; library embedders and most tests). When set, each KB
    /// lives in `<data_dir>/kbs/<name>/` — Create opens storage, boot
    /// calls RecoverKbs, Delete flushes + retires + unlinks.
    std::string data_dir;
    /// Durability tunables applied to every KB (ignored without
    /// `data_dir`).
    storage::StorageOptions storage;
  };

  EngineRegistry();  // defaults (GCC cannot parse `Options options = {}`
                     // as a default argument of a nested aggregate here)
  explicit EngineRegistry(Options options);

  EngineRegistry(const EngineRegistry&) = delete;
  EngineRegistry& operator=(const EngineRegistry&) = delete;

  /// \brief KB names are DNS-label-ish: `[A-Za-z0-9][A-Za-z0-9_-]{0,63}`.
  /// InvalidArgument otherwise.
  static Status ValidateName(std::string_view name);

  /// \brief Create a new empty KB. AlreadyExists if the name is taken,
  /// InvalidArgument for a malformed name, IoError when its durable
  /// directory cannot be initialized (the name is then not registered).
  Result<std::shared_ptr<Engine>> Create(const std::string& name);

  /// \brief Recover every KB found under `data_dir` (boot path). Each
  /// `<data_dir>/kbs/<name>/` directory becomes a registered engine with
  /// its checkpoint loaded and WAL tail replayed; a torn WAL tail is
  /// truncated, but corrupt checkpoints or unreplayable records fail the
  /// boot loudly — refusing to start beats silently dropping acknowledged
  /// data. No-op for an in-memory registry. Returns the recovered names.
  Result<std::vector<std::string>> RecoverKbs();

  /// \brief This KB's durable directory (usable even without storage
  /// attached; empty for an in-memory registry).
  std::string KbDir(const std::string& name) const;

  /// \brief Look up a KB (NotFound when absent).
  Result<std::shared_ptr<Engine>> Get(const std::string& name) const;

  /// \brief Delete a KB: unregister the name, retire the engine for
  /// publish observers, detach its storage and remove its directory tree.
  /// In-flight holders keep a working engine (now in-memory) until they
  /// drop their reference. NotFound when absent.
  Status Delete(const std::string& name);

  /// \brief One row of `GET /v1/kb`: the name plus the KB's current
  /// snapshot (grabbed atomically per engine).
  struct KbInfo {
    std::string name;
    std::shared_ptr<const Snapshot> snapshot;
  };

  /// \brief All KBs sorted by name.
  std::vector<KbInfo> List() const;

  size_t size() const;

  /// \brief The service-wide worker pool shared by every tenant, created
  /// on first use (library embedders that only want the name table never
  /// pay for idle workers).
  std::shared_ptr<util::ThreadPool> pool() const;

 private:
  Options options_;

  mutable util::Mutex pool_mutex_;
  mutable std::shared_ptr<util::ThreadPool> pool_
      TECORE_GUARDED_BY(pool_mutex_);

  mutable util::Mutex mutex_;
  mutable util::CondVar lifecycle_cv_;
  std::map<std::string, std::shared_ptr<Engine>> engines_
      TECORE_GUARDED_BY(mutex_);
  /// Names whose storage is being opened (Create) or destroyed (Delete)
  /// outside `mutex_`. A name in here is neither free nor registered:
  /// Create/Delete wait on `lifecycle_cv_` until it clears, which
  /// serializes the per-name lifecycle without holding the registry lock
  /// across filesystem work.
  std::set<std::string> lifecycle_busy_ TECORE_GUARDED_BY(mutex_);
};

}  // namespace api
}  // namespace tecore

#endif  // TECORE_API_REGISTRY_H_
