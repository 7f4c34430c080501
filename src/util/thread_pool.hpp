// A small work-stealing thread pool for the batched experiment engine.
//
// Each worker owns a deque: it pushes and pops its own work at the back
// (LIFO, cache-friendly) and steals from the front of a victim's deque when
// empty (FIFO, takes the oldest and therefore largest-granularity work).
// External submitters distribute tasks round-robin across the worker deques.
//
// The pool is deliberately simple -- mutex-guarded deques, not lock-free
// Chase-Lev -- because experiment cells are coarse (whole executions, many
// microseconds to seconds each), so queue overhead is irrelevant; what
// matters is that an idle worker can always find leftover work.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace synccount::util {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  // threads == 0 picks std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const noexcept { return static_cast<int>(workers_.size()); }

  // Enqueue one task. Thread-safe; may be called from worker threads (the
  // task then lands on the calling worker's own deque).
  void submit(Task task);

  // Block until every submitted task has finished. Safe to reuse the pool
  // afterwards. Must not be called from a worker thread.
  void wait_idle();

  // Run fn(0), ..., fn(count - 1) across the pool and wait for completion.
  // Iterations start in increasing index order (each free worker claims the
  // next index), though they may finish in any order; callers must make
  // iterations independent and write results into per-index slots.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  struct Queue {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  void worker_loop(std::size_t me);
  bool try_pop(std::size_t me, Task& out);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex idle_mu_;
  std::condition_variable work_cv_;   // workers wait here for new tasks
  std::condition_variable idle_cv_;   // wait_idle() waits here
  std::size_t pending_ = 0;           // submitted but not yet finished
  std::size_t queued_ = 0;            // submitted but not yet popped
  std::size_t next_queue_ = 0;        // round-robin cursor for external submits
  bool stop_ = false;
};

}  // namespace synccount::util
