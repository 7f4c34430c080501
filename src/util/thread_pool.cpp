#include "util/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace synccount::util {

namespace {
// The pool whose iteration the current thread is running, if any: a
// parallel_for from there would wait on itself.
thread_local const ThreadPool* tl_running = nullptr;
}  // namespace

ThreadPool::ThreadPool(int threads)
    : size_(threads > 0 ? threads
                        : static_cast<int>(std::max(1u, std::thread::hardware_concurrency()))) {
  if (size_ == 1) return;
  workers_.reserve(static_cast<std::size_t>(size_));
  for (int i = 0; i < size_; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_indices() {
  const ThreadPool* const outer = std::exchange(tl_running, this);
  for (std::size_t i = next_.fetch_add(1); i < count_; i = next_.fetch_add(1)) {
    try {
      (*fn_)(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!failure_) failure_ = std::current_exception();
    }
  }
  tl_running = outer;
}

void ThreadPool::worker_loop() {
  std::size_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    run_indices();
    const std::lock_guard<std::mutex> lock(mu_);
    if (--busy_ == 0) done_cv_.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn) {
  SC_REQUIRE(tl_running != this, "parallel_for called from inside one of its iterations");
  if (count == 0) return;
  const std::lock_guard<std::mutex> call(call_mu_);
  fn_ = &fn;
  count_ = count;
  next_.store(0);
  if (workers_.empty() || count == 1) {
    run_indices();
  } else {
    std::unique_lock<std::mutex> lock(mu_);
    busy_ = workers_.size();
    ++generation_;
    work_cv_.notify_all();
    done_cv_.wait(lock, [this] { return busy_ == 0; });
  }
  std::exception_ptr failure = std::exchange(failure_, nullptr);
  if (failure) std::rethrow_exception(failure);
}

}  // namespace synccount::util
