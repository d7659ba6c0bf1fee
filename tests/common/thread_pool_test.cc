#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace webtx {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedJob) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), ThreadPool::DefaultConcurrency());
  EXPECT_GE(ThreadPool::DefaultConcurrency(), 1u);
}

TEST(ThreadPoolTest, FutureResolvesWhenJobFinishes) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  std::future<void> future = pool.Submit([&ran] { ran.store(true); });
  future.get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFutureNotWorker) {
  ThreadPool pool(1);
  std::future<void> failing =
      pool.Submit([] { throw std::runtime_error("job failed"); });
  EXPECT_THROW(failing.get(), std::runtime_error);
  // The worker survived the throw and still runs later jobs.
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran.store(true); }).get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, WaitDrainsAndPoolStaysUsable) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (round + 1) * 20);
  }
}

TEST(ThreadPoolTest, WaitWithNoJobsReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
}

TEST(ThreadPoolTest, JobsMaySubmitMoreJobs) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::promise<void> inner_done;
  pool.Submit([&] {
    counter.fetch_add(1);
    pool.Submit([&] {
      counter.fetch_add(1);
      inner_done.set_value();
    });
  });
  inner_done.get_future().get();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, SubmitRacesFromManyThreads) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::thread> submitters;
  submitters.reserve(8);
  for (int t = 0; t < 8; ++t) {
    submitters.emplace_back([&pool, &counter] {
      for (int i = 0; i < 50; ++i) {
        pool.Submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  for (std::thread& s : submitters) s.join();
  pool.Wait();
  EXPECT_EQ(counter.load(), 8 * 50);
}

TEST(ThreadPoolTest, RunBatchCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.RunBatch(hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  // The pool stays usable: a second batch over a different count also
  // covers everything once.
  std::atomic<int> total{0};
  pool.RunBatch(5, [&total](size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 5);
}

TEST(ThreadPoolTest, RunBatchBalancesUnevenIndexCosts) {
  ThreadPool pool(4);
  // Index 0 is ~100x the others; atomic claiming means the other
  // helpers drain the remaining indices instead of idling behind a
  // static partition.
  std::atomic<int> done{0};
  pool.RunBatch(64, [&done](size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPoolTest, RunBatchWithZeroCountIsANoOp) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.RunBatch(0, [&calls](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, RunBatchRethrowsJobExceptionOnCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.RunBatch(8,
                             [](size_t i) {
                               if (i == 3) {
                                 throw std::runtime_error("index 3 failed");
                               }
                             }),
               std::runtime_error);
  // Workers survived; the pool still runs ordinary jobs.
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran.store(true); }).get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, RunBatchFinishesEveryJobBeforeRethrowing) {
  // One index each for the caller and the lone helper: the caller's job
  // throws while the helper's is still running. RunBatch may rethrow
  // only once the helper is done with the batch (its drain loop reads
  // the caller's frame).
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> helper_started{false};
  std::atomic<bool> caller_threw{false};
  std::atomic<bool> helper_done{false};
  EXPECT_THROW(pool.RunBatch(2,
                             [&](size_t) {
                               if (std::this_thread::get_id() == caller) {
                                 while (!helper_started.load()) {
                                   std::this_thread::yield();
                                 }
                                 caller_threw.store(true);
                                 throw std::runtime_error("caller failed");
                               }
                               helper_started.store(true);
                               while (!caller_threw.load()) {
                                 std::this_thread::yield();
                               }
                               std::this_thread::sleep_for(
                                   std::chrono::milliseconds(20));
                               helper_done.store(true);
                             }),
               std::runtime_error);
  EXPECT_TRUE(helper_done.load());
}

TEST(ThreadPoolTest, DestructorDrainsQueuedJobs) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        counter.fetch_add(1);
      });
    }
  }  // ~ThreadPool: queued jobs still run before workers join
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Shutdown();
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 1);
}

}  // namespace
}  // namespace webtx
