#include "rt/executor.h"

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sched/policy_factory.h"

namespace webtx::rt {
namespace {

std::unique_ptr<SchedulerPolicy> Policy(const std::string& name) {
  auto policy = CreatePolicy(name);
  EXPECT_TRUE(policy.ok()) << policy.status();
  return std::move(policy).ValueOrDie();
}

TaskSpec Quick(std::function<void()> fn, double deadline = 5.0,
               double weight = 1.0, std::vector<TxnId> deps = {}) {
  TaskSpec task;
  task.relative_deadline = deadline;
  task.weight = weight;
  task.estimated_cost = 0.001;
  task.dependencies = std::move(deps);
  task.fn = std::move(fn);
  return task;
}

TEST(ExecutorTest, RunsASubmittedTask) {
  std::atomic<int> counter{0};
  Executor executor(Policy("EDF"), {});
  auto id = executor.Submit(Quick([&] { ++counter; }));
  ASSERT_TRUE(id.ok()) << id.status();
  executor.Drain();
  EXPECT_EQ(counter.load(), 1);
  const TaskOutcome outcome = executor.OutcomeOf(id.ValueOrDie());
  EXPECT_TRUE(outcome.finished);
  EXPECT_GE(outcome.finish_seconds, outcome.submit_seconds);
  EXPECT_EQ(executor.finished_count(), 1u);
}

TEST(ExecutorTest, RunsManyTasksOnMultipleWorkers) {
  std::atomic<int> counter{0};
  ExecutorOptions options;
  options.num_workers = 4;
  Executor executor(Policy("ASETS"), options);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(executor.Submit(Quick([&] { ++counter; })).ok());
  }
  executor.Drain();
  EXPECT_EQ(counter.load(), 200);
  EXPECT_EQ(executor.finished_count(), 200u);
}

TEST(ExecutorTest, DependenciesRunInOrder) {
  std::vector<int> order;
  std::mutex order_mu;
  const auto record = [&](int step) {
    return [&, step] {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(step);
    };
  };
  ExecutorOptions options;
  options.num_workers = 3;
  Executor executor(Policy("EDF"), options);
  auto a = executor.Submit(Quick(record(0)));
  ASSERT_TRUE(a.ok());
  auto b = executor.Submit(Quick(record(1), 5.0, 1.0, {a.ValueOrDie()}));
  ASSERT_TRUE(b.ok());
  auto c = executor.Submit(Quick(record(2), 5.0, 1.0, {b.ValueOrDie()}));
  ASSERT_TRUE(c.ok());
  executor.Drain();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ExecutorTest, PolicyOrdersQueuedWork) {
  // One slow task occupies the single worker while three more queue up;
  // EDF must then run them by deadline, not submission order.
  std::vector<int> order;
  std::mutex order_mu;
  std::atomic<bool> gate{false};
  Executor executor(Policy("EDF"), {});
  ASSERT_TRUE(executor
                  .Submit(Quick([&] {
                    while (!gate.load()) {
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(1));
                    }
                  }))
                  .ok());
  const auto record = [&](int tag) {
    return [&, tag] {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tag);
    };
  };
  ASSERT_TRUE(executor.Submit(Quick(record(1), /*deadline=*/30.0)).ok());
  ASSERT_TRUE(executor.Submit(Quick(record(2), /*deadline=*/10.0)).ok());
  ASSERT_TRUE(executor.Submit(Quick(record(3), /*deadline=*/20.0)).ok());
  gate.store(true);
  executor.Drain();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

TEST(ExecutorTest, HvfRunsHeavierTasksFirst) {
  std::vector<int> order;
  std::mutex order_mu;
  std::atomic<bool> gate{false};
  Executor executor(Policy("HVF"), {});
  ASSERT_TRUE(executor
                  .Submit(Quick([&] {
                    while (!gate.load()) {
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(1));
                    }
                  }))
                  .ok());
  const auto record = [&](int tag) {
    return [&, tag] {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tag);
    };
  };
  ASSERT_TRUE(executor.Submit(Quick(record(1), 5.0, /*weight=*/1.0)).ok());
  ASSERT_TRUE(executor.Submit(Quick(record(2), 5.0, /*weight=*/9.0)).ok());
  ASSERT_TRUE(executor.Submit(Quick(record(3), 5.0, /*weight=*/4.0)).ok());
  gate.store(true);
  executor.Drain();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

TEST(ExecutorTest, TasksCanSubmitMoreTasks) {
  std::atomic<int> counter{0};
  Executor executor(Policy("SRPT"), {});
  std::atomic<Executor*> self{&executor};
  ASSERT_TRUE(executor
                  .Submit(Quick([&] {
                    ++counter;
                    for (int i = 0; i < 5; ++i) {
                      ASSERT_TRUE(
                          self.load()->Submit(Quick([&] { ++counter; }))
                              .ok());
                    }
                  }))
                  .ok());
  executor.Drain();
  EXPECT_EQ(counter.load(), 6);
}

TEST(ExecutorTest, SubmitValidation) {
  Executor executor(Policy("EDF"), {});
  TaskSpec no_fn;
  EXPECT_FALSE(executor.Submit(no_fn).ok());

  TaskSpec bad_cost = Quick([] {});
  bad_cost.estimated_cost = 0.0;
  EXPECT_FALSE(executor.Submit(bad_cost).ok());

  TaskSpec bad_dep = Quick([] {});
  bad_dep.dependencies = {42};
  EXPECT_FALSE(executor.Submit(bad_dep).ok());
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ExecutorTest, SubmitRejectsNonFiniteNumbers) {
  // NaN passes every ordered comparison: an accepted NaN deadline reads
  // as zero tardiness, and a NaN or infinite duration, timeout or
  // backoff stalls the executor. Nothing is accepted, so every rejected
  // task would have been T0.
  Executor executor(Policy("EDF"), {});
  // Submits Quick([] {}) after `set` edits it; "ok" or the error message.
  const auto error = [&executor](void (*set)(TaskSpec&)) -> std::string {
    TaskSpec task = Quick([] {});
    set(task);
    auto id = executor.Submit(std::move(task));
    return id.ok() ? "ok" : id.status().message();
  };
  EXPECT_EQ(error([](TaskSpec& t) { t.relative_deadline = kNaN; }),
            "T0 has NaN deadline");
  EXPECT_EQ(error([](TaskSpec& t) { t.weight = kNaN; }),
            "T0 has non-finite weight");
  EXPECT_EQ(error([](TaskSpec& t) { t.weight = kInf; }),
            "T0 has non-finite weight");
  EXPECT_EQ(error([](TaskSpec& t) { t.estimated_cost = kNaN; }),
            "T0 has non-finite length");
  EXPECT_EQ(error([](TaskSpec& t) { t.estimated_cost = kInf; }),
            "T0 has non-finite length");
  EXPECT_EQ(error([](TaskSpec& t) { t.simulated_duration = kNaN; }),
            "simulated_duration must be finite");
  EXPECT_EQ(error([](TaskSpec& t) {
              t.fn = nullptr;
              t.simulated_duration = kInf;
            }),
            "simulated_duration must be finite");
  EXPECT_EQ(error([](TaskSpec& t) { t.timeout_seconds = kNaN; }),
            "timeout_seconds must be finite");
  EXPECT_EQ(error([](TaskSpec& t) { t.timeout_seconds = kInf; }),
            "timeout_seconds must be finite");
  EXPECT_EQ(error([](TaskSpec& t) { t.retry_backoff_seconds = kNaN; }),
            "retry_backoff_seconds must be finite");
  EXPECT_EQ(error([](TaskSpec& t) { t.retry_backoff_seconds = kInf; }),
            "retry_backoff_seconds must be finite");
  EXPECT_EQ(error([](TaskSpec& t) { t.backoff_multiplier = kNaN; }),
            "backoff_multiplier must be finite");
  EXPECT_EQ(error([](TaskSpec& t) { t.backoff_multiplier = kInf; }),
            "backoff_multiplier must be finite");
  // An infinite deadline stays legal, as in CheckFinite: the task is
  // never late.
  EXPECT_EQ(error([](TaskSpec& t) { t.relative_deadline = kInf; }), "ok");
  // Not the destructor's drain: were the infinite simulated_duration
  // accepted, its attempt would sleep forever.
  executor.ShutdownNow();
}

TEST(ExecutorTest, SubmitAfterShutdownFails) {
  Executor executor(Policy("EDF"), {});
  executor.Shutdown();
  EXPECT_EQ(executor.Submit(Quick([] {})).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ExecutorTest, TardinessMeasuredOnRealClock) {
  Executor executor(Policy("EDF"), {});
  auto id = executor.Submit(Quick(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(30)); },
      /*deadline=*/0.005));
  ASSERT_TRUE(id.ok());
  executor.Drain();
  const TaskOutcome outcome = executor.OutcomeOf(id.ValueOrDie());
  EXPECT_GT(outcome.tardiness_seconds, 0.0);
}

TEST(ExecutorTest, ShutdownDrainsPendingWork) {
  std::atomic<int> counter{0};
  auto executor = std::make_unique<Executor>(Policy("ASETS"), ExecutorOptions{});
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(executor->Submit(Quick([&] { ++counter; })).ok());
  }
  executor->Shutdown();
  EXPECT_EQ(counter.load(), 50);
  executor.reset();  // destructor after Shutdown is a no-op
}

TEST(ExecutorTest, DependencyOnAlreadyFinishedTaskIsImmediatelyReady) {
  std::atomic<int> counter{0};
  Executor executor(Policy("EDF"), {});
  auto first = executor.Submit(Quick([&] { ++counter; }));
  ASSERT_TRUE(first.ok());
  executor.Drain();
  auto second =
      executor.Submit(Quick([&] { ++counter; }, 5.0, 1.0,
                            {first.ValueOrDie()}));
  ASSERT_TRUE(second.ok()) << second.status();
  executor.Drain();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ExecutorTest, ThrowingTaskFailsButTheWorkerSurvives) {
  std::atomic<int> counter{0};
  Executor executor(Policy("EDF"), {});
  auto bad = executor.Submit(Quick([] { throw std::runtime_error("boom"); }));
  ASSERT_TRUE(bad.ok());
  executor.Drain();
  const TaskOutcome outcome = executor.OutcomeOf(bad.ValueOrDie());
  EXPECT_TRUE(outcome.finished);
  EXPECT_EQ(outcome.result, TaskResult::kFailed);
  EXPECT_EQ(outcome.attempts, 1u);
  // The worker thread must have survived the exception.
  auto good = executor.Submit(Quick([&] { ++counter; }));
  ASSERT_TRUE(good.ok());
  executor.Drain();
  EXPECT_EQ(counter.load(), 1);
  EXPECT_EQ(executor.OutcomeOf(good.ValueOrDie()).result,
            TaskResult::kCompleted);
}

TEST(ExecutorTest, FailedAttemptsAreRetriedUpToTheBudget) {
  std::atomic<int> calls{0};
  Executor executor(Policy("EDF"), {});
  TaskSpec task = Quick([&] {
    if (calls.fetch_add(1) < 2) throw std::runtime_error("transient");
  });
  task.max_attempts = 5;
  auto id = executor.Submit(std::move(task));
  ASSERT_TRUE(id.ok());
  executor.Drain();
  EXPECT_EQ(calls.load(), 3);
  const TaskOutcome outcome = executor.OutcomeOf(id.ValueOrDie());
  EXPECT_EQ(outcome.result, TaskResult::kCompleted);
  EXPECT_EQ(outcome.attempts, 3u);
}

TEST(ExecutorTest, RetryBudgetExhaustionIsTerminalFailure) {
  std::atomic<int> calls{0};
  Executor executor(Policy("EDF"), {});
  TaskSpec task = Quick([&] {
    calls.fetch_add(1);
    throw std::runtime_error("permanent");
  });
  task.max_attempts = 3;
  task.retry_backoff_seconds = 0.002;
  auto id = executor.Submit(std::move(task));
  ASSERT_TRUE(id.ok());
  executor.Drain();
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(executor.OutcomeOf(id.ValueOrDie()).result, TaskResult::kFailed);
}

TEST(ExecutorTest, OverrunningTaskTimesOut) {
  Executor executor(Policy("EDF"), {});
  TaskSpec task;
  task.relative_deadline = 5.0;
  task.estimated_cost = 0.001;
  task.timeout_seconds = 0.005;
  task.cancellable_fn = [](const CancelToken& token) {
    // Cooperative: spin until the executor trips the token at the
    // timeout, then return (overrun observed post-return).
    while (!token.cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  auto id = executor.Submit(std::move(task));
  ASSERT_TRUE(id.ok());
  executor.Drain();
  const TaskOutcome outcome = executor.OutcomeOf(id.ValueOrDie());
  EXPECT_EQ(outcome.result, TaskResult::kTimedOut);
  EXPECT_EQ(outcome.attempts, 1u);
}

TEST(ExecutorTest, SubmitRejectsConflictingFunctions) {
  Executor executor(Policy("EDF"), {});
  TaskSpec both = Quick([] {});
  both.cancellable_fn = [](const CancelToken&) {};
  EXPECT_FALSE(executor.Submit(both).ok());

  TaskSpec bad_attempts = Quick([] {});
  bad_attempts.max_attempts = 0;
  EXPECT_FALSE(executor.Submit(bad_attempts).ok());

  TaskSpec bad_timeout = Quick([] {});
  bad_timeout.timeout_seconds = -1.0;
  EXPECT_FALSE(executor.Submit(bad_timeout).ok());
}

TEST(ExecutorTest, FailureCascadesToDependents) {
  Executor executor(Policy("EDF"), {});
  std::atomic<int> counter{0};
  auto root = executor.Submit(Quick([] { throw std::runtime_error("x"); }));
  ASSERT_TRUE(root.ok());
  auto child =
      executor.Submit(Quick([&] { ++counter; }, 5.0, 1.0,
                            {root.ValueOrDie()}));
  ASSERT_TRUE(child.ok());
  executor.Drain();
  EXPECT_EQ(counter.load(), 0);
  EXPECT_EQ(executor.OutcomeOf(child.ValueOrDie()).result,
            TaskResult::kDependencyFailed);

  // Submitting against an already-failed dependency is accepted and
  // immediately terminal.
  auto late = executor.Submit(Quick([&] { ++counter; }, 5.0, 1.0,
                                    {root.ValueOrDie()}));
  ASSERT_TRUE(late.ok()) << late.status();
  EXPECT_EQ(executor.OutcomeOf(late.ValueOrDie()).result,
            TaskResult::kDependencyFailed);
  executor.Drain();
  EXPECT_EQ(counter.load(), 0);
}

TEST(ExecutorTest, ShutdownNowShedsQueuedWorkAndCancelsInFlight) {
  ExecutorOptions options;
  options.num_workers = 1;
  Executor executor(Policy("EDF"), options);
  std::atomic<bool> started{false};
  std::atomic<int> ran{0};

  TaskSpec blocker;
  blocker.relative_deadline = 5.0;
  blocker.estimated_cost = 0.001;
  blocker.cancellable_fn = [&](const CancelToken& token) {
    started.store(true);
    while (!token.cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  auto in_flight = executor.Submit(std::move(blocker));
  ASSERT_TRUE(in_flight.ok());
  std::vector<TxnId> queued;
  for (int i = 0; i < 10; ++i) {
    auto id = executor.Submit(Quick([&] { ++ran; }));
    ASSERT_TRUE(id.ok());
    queued.push_back(id.ValueOrDie());
  }
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  executor.ShutdownNow();

  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(executor.finished_count(), 11u);
  EXPECT_EQ(executor.OutcomeOf(in_flight.ValueOrDie()).result,
            TaskResult::kShed);
  for (const TxnId id : queued) {
    EXPECT_EQ(executor.OutcomeOf(id).result, TaskResult::kShed);
  }
}

TEST(ExecutorTest, ShutdownStillDrainsPendingRetries) {
  // Plain Shutdown honors the retry budget: a transiently failing task
  // with a pending backoff still completes during shutdown.
  std::atomic<int> calls{0};
  auto executor = std::make_unique<Executor>(Policy("EDF"), ExecutorOptions{});
  TaskSpec task = Quick([&] {
    if (calls.fetch_add(1) == 0) throw std::runtime_error("transient");
  });
  task.max_attempts = 2;
  task.retry_backoff_seconds = 0.02;
  auto id = executor->Submit(std::move(task));
  ASSERT_TRUE(id.ok());
  executor->Shutdown();
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(executor->OutcomeOf(id.ValueOrDie()).result,
            TaskResult::kCompleted);
}

}  // namespace
}  // namespace webtx::rt
