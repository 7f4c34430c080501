// A fixed pool of worker threads that runs parallel loops.
//
// The workers start in the constructor and wait for a parallel_for call.
// Each call hands them one loop: every worker claims the next index from a
// shared counter until none is left, so iterations start in increasing
// index order and uneven iteration costs still balance. Experiment cells and
// synthesis cubes are coarse (whole executions, whole solver runs), so one
// atomic counter per loop is all the scheduling they need.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace synccount::util {

class ThreadPool {
 public:
  // threads == 0 picks std::thread::hardware_concurrency() (at least 1).
  // A pool of one starts no thread: its loops run on the caller.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const noexcept { return size_; }

  // Runs fn(0), ..., fn(count - 1) across the pool and waits for all of
  // them. Iterations start in increasing index order, though they may
  // finish in any order; callers must make iterations independent and write
  // results into per-index slots. Every index runs even when one throws;
  // the first exception thrown is then rethrown here. Calls from different
  // threads run one after another; a call from inside one of this pool's
  // iterations is refused (std::logic_error).
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  // Claims and runs indices of the current loop until none is left.
  void run_indices();

  int size_;
  std::mutex call_mu_;  // one loop at a time

  // The current loop. Written by parallel_for before it bumps generation_;
  // workers read them after seeing the new generation under mu_.
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait here for the next loop
  std::condition_variable done_cv_;  // parallel_for waits here for the workers
  std::size_t generation_ = 0;       // loops handed out so far
  std::size_t busy_ = 0;             // workers still in the current loop
  std::exception_ptr failure_;       // the loop's first exception
  bool stop_ = false;

  std::vector<std::thread> workers_;  // last: the workers use every member above
};

}  // namespace synccount::util
