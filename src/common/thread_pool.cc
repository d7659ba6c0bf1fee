#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "common/check.h"

namespace webtx {

size_t ThreadPool::DefaultConcurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

ThreadPool::ThreadPool(size_t num_threads)
    : num_threads_(num_threads == 0 ? DefaultConcurrency() : num_threads) {
  workers_.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

std::future<void> ThreadPool::Submit(std::function<void()> job) {
  WEBTX_CHECK(job != nullptr) << "ThreadPool::Submit requires a job";
  std::packaged_task<void()> task(std::move(job));
  std::future<void> future = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    WEBTX_CHECK(!shutting_down_) << "ThreadPool::Submit after Shutdown";
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
  return future;
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::RunBatch(size_t count,
                          const std::function<void(size_t)>& job) {
  WEBTX_CHECK(job != nullptr) << "ThreadPool::RunBatch requires a job";
  if (count == 0) return;
  // The caller is one worker, so only count-1 helpers can ever find an
  // unclaimed index.
  const size_t helpers = std::min(num_threads_, count - 1);
  std::atomic<size_t> next{0};
  const auto drain = [&next, count, &job] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < count;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      job(i);
    }
  };
  std::vector<std::future<void>> futures;
  futures.reserve(helpers);
  for (size_t h = 0; h < helpers; ++h) {
    futures.push_back(Submit(drain));
  }
  // Every helper must finish before this frame (`next`, `job`) goes
  // away, so a throw is held until all of them have; the caller's own
  // exception wins, then the first helper's.
  std::exception_ptr error;
  try {
    drain();
  } catch (...) {
    error = std::current_exception();
  }
  for (std::future<void>& f : futures) {
    try {
      f.get();  // rethrows a helper's captured exception
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_ && workers_.empty()) return;
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_available_.wait(
        lock, [this] { return !queue_.empty() || shutting_down_; });
    if (queue_.empty()) return;  // shutting down and drained
    std::packaged_task<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();  // packaged_task captures exceptions into the future
    lock.lock();
    if (--in_flight_ == 0) all_idle_.notify_all();
  }
}

}  // namespace webtx
