#include "util/thread_pool.h"

#include <algorithm>

namespace tecore {
namespace util {

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int ResolveThreadCount(int requested) {
  if (requested == 0) return HardwareThreads();
  return std::min(std::max(requested, 1), 256);
}

ThreadPool::ThreadPool(int num_threads) {
  const int workers = std::max(1, num_threads) - 1;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    queue_.push(std::move(task));
  }
  work_available_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!shutting_down_ && queue_.empty()) work_available_.Wait(mutex_);
      if (queue_.empty()) return;  // shutting down
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

}  // namespace util
}  // namespace tecore
