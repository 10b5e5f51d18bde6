// A fixed-size worker pool for dispatching independent tasks.
//
// The dlog engine fans large cold-start join passes out on it, and the
// northbound gateway runs admitted backend requests on it.
// The pool is deliberately minimal — submit void() tasks, wait for the
// queue to drain — because all result/error plumbing lives with the
// callers, which capture their own output slots.
#ifndef NERPA_COMMON_THREAD_POOL_H_
#define NERPA_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nerpa {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least one).
  explicit ThreadPool(size_t threads);
  /// Drains the queue, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t threads() const { return workers_.size(); }

  /// Enqueues `task` for execution on a worker thread.  Tasks must not
  /// throw; they run in submission order but complete in any order.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished executing.
  void WaitIdle();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait here for tasks
  std::condition_variable idle_cv_;  // WaitIdle waits here for the drain
  std::deque<std::function<void()>> queue_;
  size_t active_ = 0;  // tasks currently executing
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace nerpa

#endif  // NERPA_COMMON_THREAD_POOL_H_
