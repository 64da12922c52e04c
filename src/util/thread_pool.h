#ifndef TECORE_UTIL_THREAD_POOL_H_
#define TECORE_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace tecore {
namespace util {

/// \brief Number of hardware threads (always >= 1).
int HardwareThreads();

/// \brief Map a thread-count option to an executor count: 0 means "auto"
/// (hardware concurrency), anything else is clamped to >= 1.
int ResolveThreadCount(int requested);

/// \brief A small fixed-size thread pool: the server's connection
/// workers.
///
/// Construction spawns `num_threads - 1` workers that drain a FIFO task
/// queue. The count includes the constructing thread, which runs no task,
/// so a pool needs `num_threads >= 2` for submitted tasks to run (the
/// server pools are floored at 6). Tasks must not throw (the codebase is
/// exception-free by convention).
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  /// \brief Total executors (workers + the calling thread).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// \brief Enqueue one task for the worker threads. The destructor runs
  /// every queued task before it joins the workers.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop() TECORE_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar work_available_;
  std::queue<std::function<void()>> queue_ TECORE_GUARDED_BY(mutex_);
  bool shutting_down_ TECORE_GUARDED_BY(mutex_) = false;
};

}  // namespace util
}  // namespace tecore

#endif  // TECORE_UTIL_THREAD_POOL_H_
