#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "util/check.hpp"

namespace synccount::util {

namespace {
// Which worker (if any) the current thread is; used so that submit() from
// inside a task pushes onto the calling worker's own deque.
thread_local const ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_worker = 0;
}  // namespace

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) {
    threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  queues_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) queues_.push_back(std::make_unique<Queue>());
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(static_cast<std::size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(Task task) {
  SC_CHECK(task != nullptr, "null task");
  std::size_t target;
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    target = (tl_pool == this) ? tl_worker : next_queue_;
    next_queue_ = (next_queue_ + 1) % queues_.size();
    ++pending_;
    ++queued_;
  }
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

bool ThreadPool::try_pop(std::size_t me, Task& out) {
  // Own deque first (back = most recently pushed, cache-warm).
  {
    auto& q = *queues_[me];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.tasks.empty()) {
      out = std::move(q.tasks.back());
      q.tasks.pop_back();
      return true;
    }
  }
  // Steal from the front of the other deques (oldest task).
  for (std::size_t d = 1; d < queues_.size(); ++d) {
    auto& q = *queues_[(me + d) % queues_.size()];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.tasks.empty()) {
      out = std::move(q.tasks.front());
      q.tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t me) {
  tl_pool = this;
  tl_worker = me;
  for (;;) {
    Task task;
    if (try_pop(me, task)) {
      {
        std::lock_guard<std::mutex> lock(idle_mu_);
        --queued_;
      }
      task();
      std::lock_guard<std::mutex> lock(idle_mu_);
      if (--pending_ == 0) idle_cv_.notify_all();
      continue;
    }
    std::unique_lock<std::mutex> lock(idle_mu_);
    work_cv_.wait(lock, [this] { return stop_ || queued_ > 0; });
    if (stop_) return;
  }
}

void ThreadPool::wait_idle() {
  SC_REQUIRE(tl_pool != this, "wait_idle() called from a worker thread");
  std::unique_lock<std::mutex> lock(idle_mu_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

void ThreadPool::parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (size() == 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // One runner per worker, each claiming the next index from a shared
  // counter: iterations start in increasing index order, and a runner that
  // finishes early simply claims more, so uneven cell costs still balance.
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  const std::size_t runners = std::min(count, static_cast<std::size_t>(size()));
  for (std::size_t r = 0; r < runners; ++r) {
    submit([&fn, &next, &done, count] {
      for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        fn(i);
        done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  wait_idle();
  SC_REQUIRE(done.load() == count, "parallel_for lost tasks");
}

}  // namespace synccount::util
